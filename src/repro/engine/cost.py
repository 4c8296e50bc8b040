"""Cost-based algorithm dispatch: the engine's answer to Open Problem 8.

The paper's Open Problem 8 asks for a principled optimizer choosing between
pairwise plans and WCOJ execution.  A full answer needs new theory; what a
practical engine can do today is price every strategy the same way — from
the *instance's own degrees*, in *predicted seconds* — and run the
cheapest.  Three layers:

* **catalog** — per relation version, its degree maps
  (:class:`repro.relational.statistics.DegreeCatalog`, owned by the
  :class:`~repro.engine.registry.IndexRegistry`): max degree, distinct
  count, ``deg(Y | X)`` and the exact size of a two-relation join (a dot
  product of two maps) are reads of it.
* **simulation** — :func:`simulate_levels` walks the variable order the
  executor will actually run and bounds, level by level, the bindings
  that survive (Theorem 5.1 / Algorithm 3 for the degree constraints
  picked along the order).  ``generic`` / ``leapfrog``, in-recursion
  aggregation, any-k and the columnar descent are all that walk, over
  their own order and memo scopes; the envelope is ``min(AGM, sum of
  levels)``.  A strict projection's order is *chosen* by that walk: the
  head-first order (existential tail) against the guarded one (each
  variable guarded by one bound earlier, the head deduplicated by a
  seen-set), the cheaper runs.  ``binary`` simulates its greedy
  left-deep plan over the same catalog and is *refused* when an
  intermediate can exceed that envelope; ``yannakakis`` (acyclic only)
  pays input-linear passes plus its output;
  ``hybrid`` pays partition passes, per-key residual sub-plans and the
  simulated light side, and is only *feasible* when some value exceeds
  the |R|^(1/2) threshold; ``naive`` rescans.  Selections shrink every
  estimate through the filtered scans.
* **seconds** — :data:`COST_TABLE`, measured seconds per counted
  operation, turns operations into the predicted milliseconds that are
  compared.  Plans are replayed against a registry that keeps its
  indexes, so candidates are ranked on warm indexes; what a first run
  adds is reported beside them (``build[trie]`` / ``build[layout]``).

Aggregate and ordered queries are priced in both execution modes per
strategy, and every estimate is reported so ``explain()`` can show the
work; ``Engine.profile`` joins them to measured operations.  A forced
``mode=`` only narrows the candidates to one strategy: it is priced, and
its modes and backend resolved, exactly as under ``mode="auto"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

from repro.bounds.agm import AGMBound, agm_bound
from repro.columnar import unsupported_reason as columnar_unsupported_reason
from repro.engine.executors import filtered_instance
from repro.engine.registry import IndexRegistry
from repro.errors import QueryError
from repro.joins.binary_plans import greedy_atom_order
from repro.joins.hybrid import partition_instance, residual_query
from repro.query.atoms import ConjunctiveQuery
from repro.query.decomposition import is_alpha_acyclic
from repro.query.semiring import Aggregate
from repro.query.terms import Comparison, pinned_constants
from repro.query.variable_order import (
    LevelLayout,
    aggregate_elimination_order,
    hybrid_light_order,
    level_layout,
    pushdown_order,
    ranked_order,
    skew_split,
)
from repro.relational.database import Database
from repro.relational.statistics import (
    DegreeCatalog,
    catalog_lookup,
    join_size,
)

#: All executor strategies, in dispatch tie-break preference order.
#: ``hybrid`` (heavy/light partitioned sub-plans) is last: on a cost tie
#: a pure strategy wins, since the hybrid only exists to undercut both.
STRATEGIES = ("generic", "leapfrog", "yannakakis", "binary", "naive",
              "hybrid")

#: Accepted values for ``Engine.execute(..., mode=...)``.
MODES = ("auto",) + STRATEGIES

#: Accepted values for ``Engine.execute(..., aggregate_mode=...)``:
#: ``recursion`` forces in-recursion / in-pass semiring aggregation,
#: ``fold`` forces drain-and-fold over the streamed join, ``auto`` prices
#: both and picks per strategy.
AGGREGATE_MODES = ("auto", "recursion", "fold")

#: Accepted values for ``Engine.execute(..., ranked_mode=...)``:
#: ``anyk`` forces any-k ranked enumeration for ordered queries (emit in
#: sort order straight out of the join, stopping after LIMIT results),
#: ``drain`` forces drain-and-heap (enumerate the join, heap-select the
#: top-k), ``auto`` prices the k-sensitive any-k envelope against the
#: full-join envelope per strategy.
RANKED_MODES = ("auto", "anyk", "drain")

#: Accepted values for ``Engine.execute(..., backend=...)``: ``python``
#: (the default — the pure-Python reference oracle), ``columnar`` (sorted
#: NumPy layouts + batched ``searchsorted`` seeks; falls back to python
#: for unsupported features), ``auto`` (pick by priced envelope).
BACKENDS = ("python", "columnar", "auto")

#: Strategies the columnar backend can execute (the two WCOJ recursions —
#: the columnar runtime *is* a batched variable-at-a-time recursion, so
#: naive/binary/Yannakakis plans have no columnar form).
COLUMNAR_CAPABLE = ("generic", "leapfrog")


@dataclass(frozen=True)
class PlanAxes:
    """One plan request: the four dispatch axes as one validated value.

    Constructing it rejects a value outside :data:`MODES` /
    :data:`AGGREGATE_MODES` / :data:`RANKED_MODES` / :data:`BACKENDS`;
    :meth:`check` rejects a mode the query at hand cannot use.  The
    engine builds the record once per public call, :func:`dispatch`
    resolves the plan from it, and — iterated — it is the tail of the
    plan-cache key, so an axis cannot steer a plan without keying it.
    """

    mode: str = "auto"
    aggregate_mode: str = "auto"
    ranked_mode: str = "auto"
    backend: str = "python"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise QueryError(
                f"unknown engine mode {self.mode!r}; expected one of {MODES}")
        if self.backend not in BACKENDS:
            raise QueryError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {BACKENDS}")
        if self.aggregate_mode not in AGGREGATE_MODES:
            raise QueryError(
                f"unknown aggregate mode {self.aggregate_mode!r}; "
                f"expected one of {AGGREGATE_MODES}")
        if self.ranked_mode not in RANKED_MODES:
            raise QueryError(
                f"unknown ranked mode {self.ranked_mode!r}; "
                f"expected one of {RANKED_MODES}")

    def __iter__(self) -> Iterator[str]:
        """Every field's value, in declaration order: the plan-key tail."""
        return (getattr(self, name) for name in self.__dataclass_fields__)

    def check(self, aggregates: Sequence[Aggregate],
              order_by: Sequence[tuple[str, bool]]) -> None:
        """Reject a forced aggregate or ranked mode on a query without
        the aggregates or ORDER BY it would apply to."""
        if self.aggregate_mode != "auto" and not aggregates:
            raise QueryError(f"aggregate_mode={self.aggregate_mode!r} "
                             "needs an aggregate query")
        if self.ranked_mode != "auto" and not order_by:
            raise QueryError(
                f"ranked_mode={self.ranked_mode!r} needs an ORDER BY query")
        if self.ranked_mode == "anyk" and aggregates:
            raise QueryError(
                "ranked_mode='anyk' does not apply to aggregate queries; "
                "their ordered output is the folded group stream")


#: Cap applied to every estimate so products cannot overflow comparisons.
_COST_CAP = 1e30

#: The one cost table: seconds per counted operation of each strategy, the
#: columnar kernel's fixed per-level cost, the engine's fold per drained
#: row, the index build cost per row.  Measured, never hand-edited:
#: ``python tools/calibrate_costs.py`` re-fits and prints it.  ``generic``
#: is the rate of the WCOJ recursion under either intersection primitive:
#: Leapfrog's wall is 0.85-1.17x Generic-Join's on the calibration shapes
#: and its operation count 0.5-1.9x, unrelated — one price for the two.
# provenance: commit 8dcc2c1-dirty, python 3.11.7, x86_64 x2, tools/calibrate_costs.py
COST_TABLE = {
    "naive": 6.645e-07,  # 1.50 M/s
    "binary": 8.426e-07,  # 1.19 M/s
    "generic": 1.292e-06,  # 0.77 M/s
    "yannakakis": 1.022e-06,  # 0.98 M/s
    "hybrid": 8.172e-07,  # 1.22 M/s
    "columnar": 2.225e-07,  # 4.49 M/s
    "columnar.level": 6.988e-05,
    "fold.row": 7.646e-07,  # 1.31 M/s
    "trie.row": 5.778e-07,  # 1.73 M/s
    "layout.row": 4.309e-07,  # 2.32 M/s
}

#: Counted operations per input tuple of Yannakakis' three entry points
#: when no pass shrinks anything.  Each runs one annotated pass (the
#: annotation scan, then a ⊕-projected message and a ⊗-join per tree
#: edge); the plain walk and any-k bucket every annotated tuple into
#: candidate lists and pay their search nodes / frontier pops on top.
#: The plain entry keeps its fit to the semijoin sweeps it used to run
#: (no plan moves before a re-fit).  Structure, not speed:
#: ``calibrate_costs.py --check`` holds it.
_TREE_PASSES = {None: 8.0, "recursion": 12.0, "anyk": 5.5}


@dataclass(frozen=True)
class DispatchDecision:
    """The dispatcher's choice and the evidence behind it.

    Attributes
    ----------
    strategy:
        The chosen executor name.
    acyclic:
        Whether the query hypergraph is alpha-acyclic.
    agm:
        The AGM bound on the given database (unfiltered — the classical
        envelope ``explain()`` reports).
    costs:
        Predicted milliseconds per candidate strategy on warm indexes
        (``inf`` = infeasible), with the predicted operation counts behind
        them as ``ops[strategy]``: every strategy under ``mode="auto"``,
        the forced one otherwise.  The other bracketed entries are
        informational:
        ``agg[recursion]`` / ``agg[fold]`` and ``ranked[anyk]`` /
        ``ranked[drain]`` (the two execution-mode estimates compared),
        ``order[head]`` / ``order[guarded]`` (a strict projection's two
        variable orders, priced as the recursion),
        ``hybrid[heavy]`` / ``hybrid[light]``, ``backend[...]`` and
        ``build[trie]`` / ``build[layout]`` (what a first run adds).
    binary_order:
        The greedy atom order the binary simulation priced (the payload
        when binary is chosen); None when binary was not a candidate.
    aggregate_mode:
        The resolved aggregate execution mode for the chosen strategy
        (``"recursion"`` / ``"fold"``); None for non-aggregate queries.
    ranked_mode:
        The resolved ranked execution mode for the chosen strategy
        (``"anyk"`` / ``"drain"``); None for unordered queries.
    payload:
        The run payload of the chosen strategy, so the plan run is the
        plan priced: a WCOJ order (a plain enumeration's chosen order, or
        the mode-tagged aggregate or any-k order), the mode tag for
        Yannakakis, binary's greedy atom order, the hybrid split; None
        for naive and plain Yannakakis.
    backend:
        The resolved execution backend: ``"python"`` (reference oracle)
        or ``"columnar"`` (sorted NumPy layouts).  In auto pricing the
        comparison is recorded in the ``backend[python]`` /
        ``backend[columnar]`` cost entries.
    backend_fallback:
        When a non-default backend was requested but the plan resolved to
        python anyway, the reason (unsupported feature, incapable
        strategy, or pricing); None otherwise.
    """

    strategy: str
    acyclic: bool
    agm: AGMBound
    costs: dict[str, float]
    binary_order: tuple[int, ...] | None
    aggregate_mode: str | None = None
    ranked_mode: str | None = None
    payload: tuple | None = None
    backend: str = "python"
    backend_fallback: str | None = None


def _capped(value: float) -> float:
    return min(value, _COST_CAP)


class _Instance(NamedTuple):
    """What is priced: the query over its filtered scans and the degree
    catalog of each atom's relation."""

    query: ConjunctiveQuery
    catalogs: tuple[DegreeCatalog, ...]

    def attrs(self, atom: int, variables: Sequence[str]) -> tuple[str, ...]:
        """The stored attribute names of ``variables`` in one atom."""
        names = self.query.atoms[atom].variables
        stored = self.catalogs[atom].relation.attributes
        return tuple(stored[names.index(v)] for v in variables)


def _instance(query: ConjunctiveQuery, database: Database,
              selections: Sequence[Comparison],
              registry: IndexRegistry) -> _Instance:
    """Single-atom selections applied (``== constant`` scans by index
    seek); unfiltered relations share the registry's version-checked
    catalogs, filtered ones get a catalog for the call."""
    derived, derived_db, _residual = filtered_instance(
        query, selections, database, registry)
    own = catalog_lookup(derived_db)
    return _Instance(derived, tuple(
        registry.statistics(atom.relation)
        if derived_db.get(atom.relation) is database.get(stored.relation)
        else own(atom.relation)
        for atom, stored in zip(derived.atoms, query.atoms)))


def _scopes(layout: LevelLayout, start: int, memo: bool = True,
            factorize: bool = True) -> list[tuple[str, ...]]:
    """Per level of the layout's order, the earlier variables its work is
    keyed on: the whole prefix above ``start``.  From ``start`` on the
    executors eliminate — each residual component of the layout on its
    own (``factorize``), and with ``memo`` (the python recursion; the
    columnar descent has none) a level is evaluated once per binding of
    its *separator*, the earlier variables sharing an atom with it or a
    later one of its component."""
    query, order = layout.query, layout.order
    scopes = [order[:depth] for depth in range(len(order))]
    if start >= len(order):
        return scopes
    groups = (layout.components(start) if factorize
              else (tuple(range(start, len(order))),))
    for depths in groups:
        seen: set[str] = set()
        separators = {}
        for depth in reversed(depths):
            for atom in query.atoms_containing(order[depth]):
                seen |= atom.variable_set
            separators[depth] = set(seen)
        for j, depth in enumerate(depths):
            before = order[:start] + tuple(order[d] for d in depths[:j])
            scopes[depth] = tuple(u for u in before
                                  if not memo or u in separators[depth])
    return scopes


def simulate_levels(instance: _Instance, order: Sequence[str],
                    scopes: Sequence[tuple[str, ...]] | None = None
                    ) -> list[tuple[float, float, int, float]]:
    """Walk ``order`` over the instance's own degrees, one level at a time.

    Returns per level ``(evaluations, candidates, atoms, thinning)``: how
    many bindings of the level's scope reach it, how many candidate values
    they examine in total, how many atoms are intersected there, and the
    share of candidates expected to survive (per further atom, the share
    of its values an average bound prefix reaches: an independence
    estimate, used only for the number of *results* every strategy emits
    alike).  A level's candidates bound the bindings that survive it, so
    with the default scopes (the whole prefix) this is the survey's
    Theorem 5.1 / Algorithm 3 bound for the degree constraints picked
    along the order — one guard per variable, hence acyclic and
    order-compatible.  Three reads of the catalog bound a level, the
    tightest wins: *forward*, bindings so far times an atom's
    ``deg(variable | bound variables)``; *exact*, when one atom holds the
    whole scope, the dot product of its degree map with the joined atom's
    (the 2-path count: on Zipf out-degrees over level in-degrees,
    cardinality times max degree explodes and the instance does not);
    *backward*, an atom's tuples times the most prefixes sharing one
    binding of its bound variables (the chain read from its other end,
    carried down longer paths).
    """
    query, catalogs, attrs = instance.query, instance.catalogs, instance.attrs
    order = tuple(order)
    prefixes = 1.0                  # bindings of the whole prefix so far
    share: dict[str, float] = {}    # most prefixes sharing one value of it
    levels = []
    for depth, variable in enumerate(order):
        prefix = order[:depth]
        fans = []                   # (atom, its bound variables, degree map)
        for h, atom in enumerate(query.atoms):
            if variable in atom.variable_set:
                bound = tuple(u for u in prefix if u in atom.variable_set)
                fans.append((h, bound, catalogs[h].degree_map(
                    attrs(h, bound), attrs(h, (variable,)))))
        tops = [max(fan.values(), default=0) for _h, _b, fan in fans]
        degree = min(tops)
        reach = sorted(min(1.0, sum(fan.values()) / ((len(fan) * catalogs[
            h].distinct(attrs(h, (variable,)))) or 1)) for h, _b, fan in fans)
        # An intersection iterates its smallest list: inside a sum over
        # bindings, an atom's degree counts up to the other atoms' best.
        for i, (h, bound, fan) in enumerate(fans):
            clip = min(tops[:i] + tops[i + 1:], default=math.inf)
            if clip < tops[i]:
                fans[i] = (h, bound, {x: min(d, clip) for x, d in fan.items()})

        def candidates(scope: tuple[str, ...], count: float) -> float:
            best = count * degree
            for g, holder in enumerate(query.atoms):
                if scope and set(scope) <= holder.variable_set:
                    for _h, bound, fan in fans:
                        if bound:
                            rest = tuple(u for u in scope if u not in bound)
                            best = min(best, join_size(
                                catalogs[g].degree_map(attrs(g, bound),
                                                       attrs(g, rest)), fan))
            return best

        grown = candidates(prefix, prefixes)
        behind = [prefixes]
        for h, bound, fan in fans:
            if bound:
                held = min(share[u] for u in bound)
                grown = min(grown, sum(fan.values()) * held)
                behind.append(held * catalogs[h].max_degree(
                    attrs(h, (variable,)), attrs(h, bound)))
        scope = prefix if scopes is None else tuple(scopes[depth])
        count, examined = prefixes, grown
        if scope != prefix:
            count = min([prefixes] + [
                catalogs[g].distinct(attrs(g, scope))
                for g, holder in enumerate(query.atoms)
                if set(scope) <= holder.variable_set]) if scope else 1.0
            examined = min(grown, candidates(scope, count))
        levels.append((count, examined, len(fans), math.prod(reach[:-1])))
        for u in prefix:
            share[u] = min(share[u] * degree, grown)
        share[variable] = min(behind)
        prefixes = grown
    return levels


def _recursion_ops(levels: Sequence[tuple[float, float, int, float]],
                   results: float, agm: float, fan_in: bool = False) -> float:
    """Counted operations of a recursion over simulated ``levels``: a
    search node per evaluation, a step per candidate (per intersected
    atom with ``fan_in`` — the columnar kernel's seeks), an emission per
    result.  The candidate total is the WCOJ envelope: capped
    at the AGM bound."""
    work = sum(level[1] for level in levels)
    scale = min(1.0, agm / work) if work > 0 else 1.0
    return _capped(results + scale * sum(
        e + w * (k if fan_in else 1) for e, w, k, _thin in levels))


def _anyk_ops(instance: _Instance, layout: LevelLayout,
              levels: Sequence[tuple[float, float, int, float]],
              results: float, limit: int) -> float:
    """Counted operations of the any-k frontier stopping after ``limit``
    rows, over the ranked ``layout``; ``levels`` are its eliminators'
    simulated levels (memo scopes from the root's children on).

    A frontier level pushes one sibling at a time, since its siblings are
    in priority order already.  The pops that reach a level are the
    distinct prefixes among the first ``limit`` rows, plus one (at most
    ``limit`` plus the depth); each pays one intersection there and a
    push of its first child, and each pop pushes its next sibling.  A
    push examines candidates until one has a completion: the inverse of
    the level's completing share (the full join's rows per binding that
    survives the level's intersection, the thinning share), each at the
    eliminator's per-binding share below — the memoized best-suffix walk
    above the last key, the saturating witness search below it.  Every
    popped key class walks the rest of the head.
    """
    order, key_depth, stop = layout.order, layout.key_depth, layout.stop
    n = len(order)
    full = simulate_levels(instance, order)
    reach = [level[0] for level in full] + [full[-1][1]]
    candidates = [examined / max(evaluations, 1.0)
                  for evaluations, examined, _atoms, _thin in full]
    siblings = [max(1.0, min(candidates[depth], max(examined * thinning, 1.0)
                             / max(results, 1e-9)))
                for depth, (_e, examined, _atoms, thinning) in enumerate(full)]
    walked = [0.0] * (n + 1)   # the memoized walk below each depth
    witness = [0.0] * (n + 1)  # one saturating witness search from it
    for depth in range(n - 1, -1, -1):
        walked[depth] = walked[depth + 1] + levels[depth][0] + levels[depth][1]
        witness[depth] = min(walked[depth] / max(reach[depth], 1.0),
                             1.0 + candidates[depth]
                             + siblings[depth] * witness[depth + 1])

    def pops(depth: int) -> float:
        rows = max(results / max(reach[depth], 1.0), 1.0)
        return min(reach[depth], 1.0 + limit / rows) if depth else 1.0

    def priority(depth: int) -> float:
        if depth == key_depth:
            return witness[depth]
        return walked[depth] / max(reach[depth], 1.0)

    classes = pops(key_depth)
    head_walk = sum(full[depth][0] + full[depth][1]
                    for depth in range(key_depth, stop))
    ops = limit + classes * (head_walk + reach[stop] * witness[stop]) / max(
        reach[key_depth], 1.0)
    for depth in range(key_depth):
        ops += (pops(depth) * (1.0 + candidates[depth])
                + (pops(depth) + pops(depth + 1)) * siblings[depth]
                * priority(depth + 1))
    return ops


class _Variant(NamedTuple):
    """One way to run the recursion: the level layout the executor will
    actually use (its order, where enumeration stops, whether a seen-set
    deduplicates the head), the depth the priced elimination starts at —
    the layout's ``stop``, or the first level below the any-k frontier's
    root, whose eliminators price every deeper level — and whether the
    eliminator may factorize."""

    layout: LevelLayout
    start: int
    factorize: bool = True


def _plain_orders(query: ConjunctiveQuery, selections: Sequence[Comparison],
                  head: Sequence[str]) -> tuple[_Variant, ...]:
    """The orders a plain WCOJ enumeration can run, head-first first.

    *Head-first* is the pushdown order with the head leading: pinned and
    head variables first, so a strict projection collapses everything
    after them through the existential eliminator.  A strict projection
    (some unpinned variable outside the head) has a second: *guarded*,
    the pushdown order without the head block — each variable placed by
    its own degree, so it can be guarded by one bound before it — which
    enumerates every full row and deduplicates the head by a seen-set.
    Only orders that differ are returned."""
    fixed = set(pinned_constants(selections))
    orders = [pushdown_order(query, fixed=fixed, leading=head)]
    if head and not fixed | set(head) >= set(query.variables):
        guarded = pushdown_order(query, fixed=fixed)
        if guarded != orders[0]:
            orders.append(guarded)
    # An empty head projects nothing away: a standalone ``dispatch``
    # without ``group`` prices the full enumeration.
    layouts = [level_layout(query, order, selections, head or None)
               for order in orders]
    return tuple(_Variant(layout, layout.stop) for layout in layouts)


def _walk(instance: _Instance, variant: _Variant, results: float,
          memo: bool = True) -> tuple[list, float]:
    """A variant's simulated levels and the rows it emits (below an
    elimination: the surviving prefixes)."""
    order = variant.layout.order
    n = len(order)
    levels = simulate_levels(instance, order, _scopes(
        variant.layout, variant.start, memo, variant.factorize))
    if variant.start == n:
        emitted = results
    elif variant.start:
        emitted = min(results, levels[variant.start - 1][1])
    else:
        emitted = min(results, 1.0)
    return levels, emitted


class _PlainPlan(NamedTuple):
    """A plain enumeration as chosen: the variant that runs, the full
    join's estimated size, and the predicted ms of each order compared
    (``order[head]`` / ``order[guarded]``; empty without a choice)."""

    variant: _Variant
    results: float
    priced: dict[str, float]


def _plain_plan(instance: _Instance, selections: Sequence[Comparison],
                head: Sequence[str], agm: float,
                choose: bool = True) -> _PlainPlan:
    """The one chooser of a plain WCOJ enumeration's order.

    Every order of :func:`_plain_orders` is walked by
    :func:`simulate_levels` and priced like the recursion it is — plus,
    for the guarded order, the seen-set's probe of every full row at the
    engine's per-row fold rate.  The cheaper runs; a tie runs head-first.
    The full join's size is estimated over the head-first order, so
    every other strategy's price is the same whichever order wins.
    Without ``choose`` (an aggregate query: ``head`` is its group-by, and
    the aggregate planner owns the order) only that estimate is taken.
    """
    orders = _plain_orders(instance.query, selections, head)
    last = simulate_levels(instance, orders[0].layout.order)[-1]
    results = min(agm, last[1] * last[3])
    if len(orders) == 1 or not choose:
        return _PlainPlan(orders[0], results, {})
    priced = {}
    for label, variant in zip(("order[head]", "order[guarded]"), orders):
        levels, emitted = _walk(instance, variant, results)
        seen_rows = results if variant.layout.seen_set else 0.0
        priced[label] = 1000.0 * (
            COST_TABLE["generic"] * _recursion_ops(levels, emitted, agm)
            + COST_TABLE["fold.row"] * seen_rows)
    head_first, guarded = orders
    chosen = (guarded if priced["order[guarded]"] < priced["order[head]"]
              else head_first)
    return _PlainPlan(chosen, results, priced)


def _left_deep_sizes(instance: _Instance, order: Sequence[int]
                     ) -> Iterator[tuple[float, int, float]]:
    """Per join of the left-deep plan over ``order``: the intermediate
    going in, the joined relation's size, the intermediate coming out —
    exact for the first join (the dot product of two degree maps), then
    the intermediate times the joined relation's max degree on the shared
    variables: what skew achieves, where independence estimates collapse.
    """
    query, catalogs, attrs = instance.query, instance.catalogs, instance.attrs
    first = order[0]
    size = float(catalogs[first].cardinality)
    covered = set(query.atoms[first].variables)
    for step, chosen in enumerate(order[1:]):
        variables = query.atoms[chosen].variables
        shared = tuple(v for v in variables if v in covered)
        scanned = catalogs[chosen].cardinality
        if not shared:
            grown = size * scanned  # cartesian product
        elif step == 0:
            grown = float(join_size(
                catalogs[first].degree_map(attrs(first, shared)),
                catalogs[chosen].degree_map(attrs(chosen, shared))))
        elif covered.issuperset(variables):
            grown = size  # semijoin-shaped: the intermediate cannot grow
        else:
            grown = size * catalogs[chosen].max_degree(attrs(chosen, shared))
        yield size, scanned, grown
        covered.update(variables)
        size = max(grown, 1.0)


def _binary_ops(instance: _Instance, order: tuple[int, ...],
                envelope: float, results: float) -> float:
    """Counted operations of the greedy left-deep plan the binary executor
    would run, or ``inf``.  A hash join scans, and inserts or probes, each
    input tuple and emits each output tuple (an intermediate is also
    materialized: charged twice); the final join emits the shared result
    estimate.  A plan whose pessimistic intermediate exceeds the WCOJ
    ``envelope`` is refused: a plan that can exceed the bound is what
    worst-case optimality rules out (and how a Zipf star projection runs
    out of memory)."""
    joins = list(_left_deep_sizes(instance, order))
    if not joins:
        return float(instance.catalogs[order[0]].cardinality)  # a lone scan
    ops = 0.0
    for size, scanned, grown in joins[:-1]:
        if grown > envelope:
            return math.inf
        ops += 2.0 * (size + scanned + grown)
    size, scanned, grown = joins[-1]
    return _capped(ops + 2.0 * (size + scanned) + min(grown, results))


def plan_aggregation(query: ConjunctiveQuery,
                     selections: Sequence[Comparison],
                     aggregates: Sequence[Aggregate],
                     group: Sequence[str]) -> dict:
    """The aggregate-aware order and the facts mode resolution needs.

    Returns a dict with the binding ``order`` (constant-pinned variables,
    then the group prefix, then the width-minimizing elimination tail,
    chosen per residual component), whether any variable is actually
    eliminated (``has_elimination``), and whether every aggregate's
    semiring carries a product (``product_ok`` — the precondition for
    Yannakakis' in-pass mode).
    """
    fixed = set(pinned_constants(selections))
    # Without product semirings the eliminator cannot combine component
    # values, so the order must be the monolithic fold's.
    product_ok = all(a.semiring().has_product for a in aggregates)
    order = aggregate_elimination_order(query, group=group, fixed=fixed,
                                        selections=selections,
                                        factorize=product_ok)
    return {
        "order": order,
        "has_elimination": bool(set(query.variables) - set(group)),
        "product_ok": product_ok,
    }


def plan_ranked(query: ConjunctiveQuery, selections: Sequence[Comparison],
                order_by: Sequence[tuple[str, bool]],
                head: Sequence[str]) -> dict:
    """The any-k binding order and the facts ranked-mode resolution needs.

    ``order_by`` holds the query's ``(variable, descending)`` sort keys
    (non-aggregate queries only — ORDER BY columns are head variables
    there).  Returns a dict with the binding ``order`` (pinned variables,
    the sort keys in key sequence, the remaining head, then the
    width-minimizing existential tail) and the normalized ``keys``.
    """
    fixed = set(pinned_constants(selections))
    keys = tuple((variable, bool(descending))
                 for variable, descending in order_by)
    order = ranked_order(query, [v for v, _d in keys], fixed=fixed,
                         head=head, selections=selections)
    return {"order": order, "keys": keys}


def plan_hybrid(query: ConjunctiveQuery, database: Database,
                registry: IndexRegistry | None = None) -> dict:
    """The skew facts behind a hybrid heavy/light plan.

    Returns a dict with the chosen skew ``variable``, the
    |R|^(1/2)-style degree ``threshold``, the observed ``max_degree``,
    whether the instance is ``skewed`` at all (some value exceeds the
    threshold — the feasibility gate: on uniform-degree data both sides
    of the split collapse and a pure strategy is strictly better), and
    the per-side strategies.  The heavy side runs *per-key residual*
    Yannakakis sub-plans whenever binding the skew variable leaves an
    acyclic residual (a triangle's residual is a 2-path, a 4-cycle's a
    3-path — this is where binding the few heavy keys buys structure,
    not just cardinality); only a cyclic residual falls back to one
    whole-side binary sub-plan.  The bounded-degree light residual
    always runs generic join.
    """
    variable, threshold, max_degree = skew_split(
        query, database,
        registry.statistics if registry is not None else None)
    residual = residual_query(query, variable)
    residual_acyclic = (residual is None
                        or is_alpha_acyclic(residual.hypergraph()))
    return {
        "variable": variable,
        "threshold": threshold,
        "max_degree": max_degree,
        "skewed": max_degree > threshold,
        "heavy_strategy": "yannakakis" if residual_acyclic else "binary",
        "light_strategy": "generic",
    }


def _hybrid_ops(query: ConjunctiveQuery, database: Database,
                selections: Sequence[Comparison], hybrid_plan: dict,
                group: Sequence[str], agm: float,
                ) -> tuple[float, float, float] | None:
    """(partition, heavy-side, light-side) operation counts, or None.

    Two heavy/light scan passes over every touched relation; then, under
    per-key residual Yannakakis sub-plans, the touched restrictions are
    scanned once *in total* across keys (they partition the heavy tuples)
    and each untouched relation once per key — annotated passes over
    ``heavy_total + n_keys * untouched``; a cyclic residual prices one
    whole-side binary sub-plan instead.  The light side is generic join
    simulated on the light instance's own degrees (per-key degree <= t in
    every touched relation: the whole case for the hybrid) after its
    single-atom selections, as its executor runs it.  None when no key is
    heavy — the light side alone is generic join plus the passes; an
    empty *light* side is still a plan (a few fat keys, each a residual
    sub-plan, beat the recursion).
    """
    part = partition_instance(query, database, hybrid_plan["variable"],
                              hybrid_plan["threshold"])
    if part.heavy_total == 0:
        return None
    light_query, light_db, _residual = filtered_instance(
        part.light_query, selections, part.light_db)
    own = catalog_lookup(part.heavy_db), catalog_lookup(light_db)
    heavy, light = (
        _Instance(side, tuple(lookup(atom.relation) for atom in side.atoms))
        for side, lookup in zip((part.heavy_query, light_query), own))
    if hybrid_plan["heavy_strategy"] == "yannakakis":
        untouched = sum(c.cardinality for i, c in enumerate(heavy.catalogs)
                        if i not in part.touched)
        heavy_ops = _TREE_PASSES[None] * (
            part.heavy_total + len(part.heavy_keys) * untouched)
    else:
        heavy_ops = _binary_ops(
            heavy, greedy_atom_order(part.heavy_query, part.heavy_db),
            math.inf, 0.0)
    order = hybrid_light_order(query, hybrid_plan["variable"], leading=group)
    light_ops = _recursion_ops(simulate_levels(light, order), 0.0, agm)
    return (2.0 * (part.heavy_total + part.light_total), _capped(heavy_ops),
            light_ops)


def _resolve(forced: str, inner: str, outer: str, inner_cost: float,
             outer_cost: float, inner_ok: bool, prefer_inner: bool
             ) -> tuple[str | None, float]:
    """Pick one strategy's execution variant on a mode axis.

    ``inner`` evaluates inside the join (``recursion`` / ``anyk``),
    ``outer`` above it (``fold`` / ``drain``).  A forced variant is taken
    as given — ``(None, inf)`` when the strategy cannot run a forced
    ``inner``; on ``auto`` the cheaper one wins, and a tie goes to the
    plainer ``outer`` pipeline unless ``prefer_inner``.
    """
    if forced == inner:
        return (inner, inner_cost) if inner_ok else (None, math.inf)
    if forced == outer or not inner_ok:
        return outer, outer_cost
    if inner_cost < outer_cost or (inner_cost == outer_cost and prefer_inner):
        return inner, inner_cost
    return outer, outer_cost


#: Per mode axis: the label of its two informational cost entries
#: (``agg[recursion]``, ``ranked[drain]``, ...) and its in-the-join /
#: above-the-join variants.
_VARIANTS = {"aggregate_mode": ("agg", "recursion", "fold"),
             "ranked_mode": ("ranked", "anyk", "drain")}


class _Candidate(NamedTuple):
    """One strategy as priced: predicted ms, the predicted operations
    behind them, the modes that cost assumes."""

    cost: float
    ops: float
    aggregate_mode: str | None = None
    ranked_mode: str | None = None


def _estimate(query: ConjunctiveQuery, database: Database,
              instance: _Instance, selections: Sequence[Comparison],
              group: Sequence[str], agm: float, acyclic: bool,
              names: Sequence[str], binary_order: tuple[int, ...] | None,
              hybrid_plan: dict | None, axes: PlanAxes,
              agg_plan: dict | None, ranked_plan: dict | None,
              limit: int | None,
              ) -> tuple[dict[str, _Candidate], dict[str, float],
                         dict[str, _Candidate], Callable[[str], float],
                         tuple[str, ...]]:
    """Price the strategies in ``names`` in predicted milliseconds: a
    candidate for each one that can run the request (a name is absent
    when it cannot: Yannakakis on a cyclic query, or a strategy without
    the forced in-the-join mode), the informational cost entries, the
    candidate the columnar kernel runs for each recursion strategy (its
    drain where python resolved to any-k, which the kernel lacks, unless
    any-k is forced) and the kernel's pricer (strategy -> ms of that
    run), and the order a plain enumeration runs (:func:`_plain_plan`'s
    choice).  A strategy outside ``names`` is not priced at all: no
    binary simulation, hybrid partition or naive rescan unless asked for.

    Every recursion variant — plain, in-recursion aggregation, any-k, the
    columnar descent — is the same :func:`simulate_levels` walk over the
    order *it* runs, under its own scopes.  *Any-k* under a LIMIT pays
    the pops its lazy frontier makes (:func:`_anyk_ops`), at most the
    eager price: the best-suffix DP below the first level plus one
    root-to-leaf delay per surfaced result.  Without a LIMIT every
    result must surface, so it pays that price and the drain on top, and
    auto resolves to drain.  A group-by keeping every variable eliminates
    nothing: both aggregate modes walk the same levels, and only the fold
    pays the engine's fold over every row.
    """
    total = float(sum(c.cardinality for c in instance.catalogs))
    n = len(query.variables)
    plain = _plain_plan(instance, selections, group, agm,
                        choose=agg_plan is None)
    results = plain.results  # the full join, for everybody
    outer, inner, pops = plain.variant, None, 0.0
    axis, forced, prefer_inner, tree_inner_ok = "", "", False, True
    if ranked_plan is not None:
        axis, forced = "ranked_mode", axes.ranked_mode
        # The frontier prices an eliminator below every level from the
        # root's children on, wherever its keys end.
        inner = _Variant(level_layout(
            instance.query, ranked_plan["order"], selections, group or None,
            keys=[v for v, _d in ranked_plan["keys"]]), 1)
    elif agg_plan is not None:
        axis, forced = "aggregate_mode", axes.aggregate_mode
        prefer_inner = agg_plan["has_elimination"]
        tree_inner_ok = agg_plan["product_ok"]
        outer = _Variant(level_layout(
            instance.query, agg_plan["order"], selections), n)
        grouped = level_layout(instance.query, agg_plan["order"],
                               selections, group, aggregate=True)
        inner = _Variant(grouped, grouped.stop, agg_plan["product_ok"])
    label, inner_name, outer_name = _VARIANTS.get(axis, ("", "", ""))

    walks: dict[tuple, tuple[list, float]] = {}

    def walk(variant: _Variant, memo: bool = True) -> tuple[list, float]:
        if (variant, memo) not in walks:
            walks[variant, memo] = _walk(instance, variant, results, memo)
        return walks[variant, memo]

    def recursion_ops(variant: _Variant, fan_in: bool = False,
                      memo: bool = True) -> float:
        levels, emitted = walk(variant, memo)
        ops = _recursion_ops(levels, emitted, agm, fan_in)
        if variant is not inner:
            return _capped(ops)
        if ranked_plan is None or limit is None:
            return _capped(ops + pops)
        return _capped(min(ops + pops, _anyk_ops(
            instance, variant.layout, levels, results, limit)))

    if ranked_plan is not None:
        pops = n * limit if limit is not None else recursion_ops(outer)

    def ms(name: str, ops: float, mode: str = "",
           seen_set: bool = False) -> float:
        # A stream-fold also pays the engine's fold over every result, and
        # a seen-set its probe of every full row, at the same rate.
        folded = mode == "fold" or seen_set
        return 1000.0 * (COST_TABLE[name] * ops + (
            COST_TABLE["fold.row"] * results if folded else 0.0))

    variants = {outer_name: outer}
    if inner is not None:
        variants[inner_name] = inner

    def tree_ops(mode: str) -> float:
        # Yannakakis: input-linear passes plus what it emits.
        if mode == outer_name:
            return _capped(_TREE_PASSES[None] * total + 4 * results)
        return _capped(_TREE_PASSES[mode] * total + (
            pops if ranked_plan is not None else walk(variants[mode])[1]))

    candidates: dict[str, _Candidate] = {}
    info: dict[str, float] = dict(plain.priced)
    kernel: dict[str, tuple[_Candidate, _Variant]] = {}
    # The recursion and Yannakakis can also run in the join: in-recursion
    # or in-pass aggregation (Yannakakis' needs product semirings), the
    # any-k frontier or annotated join-tree expansion.  Leapfrog is the
    # same recursion under another intersection primitive: one price, and
    # the STRATEGIES tie-break runs Generic-Join.
    for name in ("generic", "yannakakis") if acyclic else ("generic",):
        if name not in names and not (name == "generic"
                                      and "leapfrog" in names):
            continue
        recursion = name == "generic"
        ops = {mode: recursion_ops(variant) if recursion else tree_ops(mode)
               for mode, variant in variants.items()}
        cost = {mode: ms(name, ops[mode], mode,
                         recursion and variant.layout.seen_set)
                for mode, variant in variants.items()}
        mode: str | None = outer_name
        if inner is not None:
            if recursion:
                info.update((f"{label}[{m}]", c) for m, c in cost.items())
            mode, _ms = _resolve(
                forced, inner_name, outer_name,
                cost[inner_name], cost[outer_name],
                prefer_inner=prefer_inner,
                inner_ok=recursion or tree_inner_ok)
            if mode is None:
                continue
        candidates[name] = _Candidate(cost[mode], ops[mode],
                                      **({axis: mode} if axis else {}))
        if recursion:
            # The columnar kernel has no any-k: unless it is forced, the
            # kernel runs the drain of a recursion resolved to it.
            run = (outer_name if axis == "ranked_mode" and mode == inner_name
                   and forced != inner_name else mode)
            kernel[name] = (_Candidate(cost[run], ops[run],
                                       **({axis: run} if axis else {})),
                            variants[run])
    if "generic" in candidates:
        candidates["leapfrog"] = candidates["generic"]
        kernel["leapfrog"] = kernel["generic"]

    # The materializing, naive and hybrid strategies run only the
    # above-the-join variant (the hybrid's sides stream full core tuples,
    # disjoint on the skew variable, so the engine's fold *is* the
    # ⊕-stitch): infeasible when the in-the-join one is forced.
    if inner is None or forced != inner_name:
        flat: dict[str, float] = {}
        if binary_order is not None:
            envelope = min(agm, sum(level[1] for level in walk(outer)[0]))
            flat["binary"] = _binary_ops(instance, binary_order, envelope,
                                         results)
        if "naive" in names:
            # Nested loops rescan each (unfiltered) relation once per
            # binding that survives the atoms before it.
            naive_ops = results
            reaching = [1.0] + [size for size, _scanned, _grown in
                                _left_deep_sizes(instance,
                                                 range(len(query.atoms)))]
            for atom, size in zip(query.atoms, reaching):
                naive_ops += size * len(database.get(atom.relation))
            flat["naive"] = _capped(naive_ops)
        if hybrid_plan is not None:
            # Only skewed instances are partitioned (and priced) at all;
            # an unskewed one still runs a forced hybrid, priced inf.
            sides = (_hybrid_ops(query, database, selections, hybrid_plan,
                                 group, agm)
                     if hybrid_plan["skewed"] else None)
            flat["hybrid"] = math.inf
            if sides is not None:
                flat["hybrid"] = _capped(sum(sides) + results)
                info["hybrid[heavy]"] = ms("hybrid", sides[1])
                info["hybrid[light]"] = ms("hybrid", sides[2])
        for name, count in flat.items():
            candidates[name] = _Candidate(
                ms(name, count, outer_name), count,
                **({axis: outer_name} if axis else {}))

    def columnar_ms(name: str) -> float:
        """The kernel's run of ``name``: the same levels without the
        separator memo, one seek per intersected atom, plus the kernel's
        fixed cost per level."""
        run, variant = kernel[name]
        return (ms("columnar", recursion_ops(variant, True, False),
                   run.aggregate_mode or "")
                + 1000.0 * n * COST_TABLE["columnar.level"])

    info["build[trie]"] = ms("trie.row", total)
    info["build[layout]"] = ms("layout.row", total)
    asked = {name: candidates[name] for name in names if name in candidates}
    runs = {name: run for name, (run, _variant) in kernel.items()}
    return asked, info, runs, columnar_ms, plain.variant.layout.order


def _payload_for(strategy: str, candidate: _Candidate,
                 plain_order: tuple[str, ...], agg_plan: dict | None,
                 ranked_plan: dict | None,
                 binary_order: tuple[int, ...] | None,
                 hybrid_plan: dict | None) -> tuple | None:
    """The run payload of the chosen strategy, in the modes it was
    priced in.

    Any-k plans carry the ``("anyk", ranked order)`` tag, aggregate plans
    their mode tag (Yannakakis' with an empty order); every other WCOJ
    plan — drain-ranked ones included, the engine sorts above them — runs
    the untagged ``plain_order``.  Binary runs the greedy order its
    simulation priced, hybrid the skew split; naive needs nothing.
    """
    if strategy == "binary":
        return binary_order
    if strategy == "hybrid" and hybrid_plan is not None:
        return ("hybrid", hybrid_plan["variable"], hybrid_plan["threshold"],
                hybrid_plan["heavy_strategy"], hybrid_plan["light_strategy"])
    wcoj = strategy in ("generic", "leapfrog")
    if candidate.ranked_mode == "anyk" and ranked_plan is not None:
        return ("anyk", ranked_plan["order"] if wcoj else ())
    mode = candidate.aggregate_mode
    if mode is not None and agg_plan is not None and strategy != "naive":
        return (mode, agg_plan["order"] if wcoj else ())
    return plain_order if wcoj else None


def dispatch(query: ConjunctiveQuery, database: Database,
             mode: str = "auto",
             selections: Sequence[Comparison] = (),
             aggregates: Sequence[Aggregate] = (),
             group: Sequence[str] = (),
             aggregate_mode: str = "auto",
             order_by: Sequence[tuple[str, bool]] = (),
             limit: int | None = None,
             ranked_mode: str = "auto",
             backend: str = "python",
             registry: IndexRegistry | None = None) -> DispatchDecision:
    """Choose an executor for the query and resolve its plan.

    Parameters
    ----------
    mode:
        ``"auto"`` prices every strategy and picks the cheapest; a
        strategy name narrows the candidates to that one, priced the same
        way (and nothing else priced), so it resolves its aggregate mode,
        ranked mode and backend exactly as auto's candidate of that name.
        A forced strategy priced ``inf`` still runs; one that cannot run
        the request at all raises :class:`QueryError` (``"yannakakis"`` on
        a cyclic query, an in-the-join mode forced on a strategy without
        one).
    selections:
        Rich-query comparison predicates; single-atom ones filter the
        scans every estimate is simulated over.
    aggregates / group:
        The query's semiring aggregate heads and group-by variables; when
        present, both aggregate execution modes are priced and the
        decision carries the aggregate-aware variable order.
    aggregate_mode:
        ``"auto"`` resolves the mode per strategy by cost;
        ``"recursion"``/``"fold"`` force it (forcing ``"recursion"``
        restricts dispatch to the recursions and Yannakakis, whose
        in-pass mode needs product semirings).
    order_by / limit:
        The query's sort keys (``(variable, descending)`` pairs) and its
        own LIMIT; for non-aggregate ordered queries the k-sensitive
        any-k plan is priced against the full-join drain (the
        ``ranked[anyk]`` / ``ranked[drain]`` cost entries).
    ranked_mode:
        ``"auto"`` resolves the ranked mode per strategy by cost (any-k
        needs a LIMIT to beat drain, since without one every result must
        surface anyway); ``"anyk"``/``"drain"`` force it (forcing
        ``"anyk"`` restricts dispatch to the recursions and Yannakakis and
        rejects aggregate queries, whose ordered output is the group
        stream, not the join).
    backend:
        ``"python"`` (default) runs the reference oracle; ``"columnar"``
        requests the vectorized backend, transparently resolving back to
        python (with the reason in ``backend_fallback``) whenever the
        query needs a feature outside the vectorized subset or the chosen
        strategy has no columnar form; ``"auto"`` compares the priced
        ``backend[python]``/``backend[columnar]`` predictions.  Requesting
        ``columnar`` under ``mode="auto"`` steers strategy choice to the
        columnar-capable WCOJ strategies when the request can be honored.
    registry:
        The session's index registry: its degree catalogs and hash
        indexes (bound scans are seeks) serve the pricing; without one
        they are built for the call.
    """
    # Below this line the request is read from the record only.
    axes = PlanAxes(mode, aggregate_mode, ranked_mode, backend)
    aggregates = tuple(aggregates)
    order_by = tuple(order_by)
    axes.check(aggregates, order_by)
    acyclic = is_alpha_acyclic(query.hypergraph())
    bound = agm_bound(query, database)
    agg_plan = (plan_aggregation(query, selections, aggregates, group)
                if aggregates else None)
    ranked_plan = (plan_ranked(query, selections, order_by, group)
                   if order_by and not aggregates else None)
    # A forced mode narrows the candidates to one; pricing chooses among
    # what is left, so a forced strategy resolves every other axis exactly
    # as auto's candidate of that name does.
    names = STRATEGIES if axes.mode == "auto" else (axes.mode,)
    if registry is None:
        registry = IndexRegistry(database)  # catalogs for the call
    binary_order = (greedy_atom_order(query, database)
                    if "binary" in names else None)
    hybrid_plan = (plan_hybrid(query, database, registry)
                   if "hybrid" in names else None)
    instance = _instance(query, database, selections, registry)
    candidates, costs, kernel_runs, columnar_ms, plain_order = _estimate(
        query, database, instance, selections, group, bound.bound, acyclic,
        names, binary_order, hybrid_plan, axes, agg_plan, ranked_plan, limit)
    for name in names:
        costs[name] = candidates[name].cost if name in candidates else math.inf
        if costs[name] != math.inf:
            costs[f"ops[{name}]"] = candidates[name].ops
    if not candidates:  # auto always has generic: a forced one refused
        forced = axes.mode
        if forced == "yannakakis" and not acyclic:
            raise QueryError(
                f"strategy {forced!r} is infeasible for query {query.name!r} "
                f"(cyclic query?); use mode='auto' or a WCOJ mode")
        if axes.aggregate_mode == "recursion":
            raise QueryError(
                "aggregate_mode='recursion' needs product semirings "
                "for every aggregate under strategy 'yannakakis'"
                if forced == "yannakakis" else
                f"strategy {forced!r} cannot aggregate in-recursion; "
                "use a WCOJ mode, 'yannakakis', or aggregate_mode='fold'")
        raise QueryError(
            f"strategy {forced!r} cannot enumerate in rank order; "
            "use a WCOJ mode, 'yannakakis', or ranked_mode='drain'")
    # A candidate priced inf (binary refused by the envelope, hybrid on an
    # unskewed instance) still runs when it is the only one.
    strategy = min(candidates, key=lambda s: (costs[s], STRATEGIES.index(s)))

    # Price the backend axis: the best columnar-capable candidate on the
    # vectorized kernel vs the best python one.  Recorded even for
    # default-python requests so explain() always shows both.
    capable = [s for s in COLUMNAR_CAPABLE if s in candidates]
    candidate = (min(capable, key=lambda s: (costs[s], STRATEGIES.index(s)))
                 if capable else strategy)
    kernel = kernel_runs[candidate] if capable else candidates[candidate]
    columnar_reason = (
        columnar_unsupported_reason(
            selections=selections, aggregates=aggregates,
            ranked_mode=kernel.ranked_mode)
        if capable else
        f"strategy {strategy!r} has no columnar implementation")
    if columnar_reason is not None or costs[candidate] == math.inf:
        columnar_cost = math.inf
    else:
        columnar_cost = _capped(columnar_ms(candidate))
    costs["backend[python]"] = costs[strategy]
    costs["backend[columnar]"] = columnar_cost
    backend_resolved = "python"
    backend_fallback: str | None = None
    if axes.backend != "python":
        if columnar_cost == math.inf:
            backend_fallback = (columnar_reason
                                or "no feasible columnar-capable strategy")
        elif axes.backend == "columnar" or columnar_cost < costs[strategy]:
            strategy = candidate
            backend_resolved = "columnar"
        else:
            backend_fallback = "python backend priced cheaper"
    chosen = candidates[strategy]
    if backend_resolved == "columnar" and kernel != chosen:
        # The kernel drains what python would run as any-k: the plan
        # reports the drain's price.
        chosen = kernel
        costs[strategy], costs[f"ops[{strategy}]"] = chosen.cost, chosen.ops
    ranked_resolved = chosen.ranked_mode
    if order_by and ranked_resolved is None:
        ranked_resolved = "drain"  # ordered aggregate queries
    payload = _payload_for(strategy, chosen, plain_order, agg_plan,
                           ranked_plan, binary_order, hybrid_plan)
    return DispatchDecision(
        strategy=strategy, acyclic=acyclic, agm=bound, costs=costs,
        binary_order=binary_order,
        aggregate_mode=chosen.aggregate_mode,
        ranked_mode=ranked_resolved,
        payload=payload,
        backend=backend_resolved,
        backend_fallback=backend_fallback,
    )
