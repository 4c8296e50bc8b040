"""Cost-based algorithm dispatch: the engine's answer to Open Problem 8.

The paper's Open Problem 8 asks for a principled optimizer choosing between
pairwise plans and WCOJ execution.  A full answer needs new theory; what a
practical engine can do today is combine the quantities the theory *does*
provide — the AGM bound as the WCOJ runtime envelope, acyclicity as the
license for Yannakakis' output-linear algorithm, and textbook
distinct-count estimates for pairwise intermediates — into one comparable
"estimated operations" scale per strategy:

* ``naive``     — the product of the relation sizes (wins only for
  single-atom scans and tiny inputs);
* ``binary``    — greedy left-deep simulation with *pessimistic*
  (degree-based, worst-case) intermediate estimates: each join can grow the
  intermediate by at most the joined relation's maximum degree on the
  shared variables.  Worst-case estimation is what makes the dispatcher
  sound on skew — independence-style estimates are exactly what the
  "skew strikes back" instances fool;
* ``generic`` / ``leapfrog`` — index build plus the WCOJ envelope (the
  constants separating the two reflect hashing vs galloping in this
  pure-Python setting);
* ``yannakakis`` — input-linear semijoin passes plus a discounted output
  term; only *feasible* for alpha-acyclic queries;
* ``hybrid``    — heavy/light partition on the most skewed variable
  (threshold = sqrt of the largest touched relation): two partition
  passes, a semijoin-priced heavy side (few distinct keys amortize), and
  a generic-join light side whose envelope the partition's own degree
  bound sharpens.  Only *feasible* when some value actually exceeds the
  threshold — on uniform-degree data the split degenerates and a pure
  strategy is strictly better.

Two refinements sharpen the envelope beyond the raw AGM bound:

* **selectivity**: when the query carries selections, the envelope is the
  degree-aware output-size bound of the *filtered* instance (single-atom
  predicates applied to the scans, :mod:`repro.bounds.degree_aware`),
  taken against the unfiltered AGM bound with ``min`` — selective
  constants therefore shrink the WCOJ estimate, not just the scan terms;
* **aggregation**: aggregate queries are priced in both execution modes —
  *stream-fold* (drain the join, fold the output; join-linear) and
  *in-recursion* (FAQ-style variable elimination with component
  factorization; bounded by ``N^faq-width`` where the width is the
  **maximum residual-component width** of the aggregate-aware order, not
  the monolithic tail width — the eliminators fold
  conditionally-independent tail components separately, so that is the
  exponent actually paid) — and the dispatcher resolves the mode per
  strategy, reporting both estimates so ``explain()`` can show the
  comparison;
* **ranked enumeration**: ordered non-aggregate queries are priced in both
  ranked modes — *drain-and-heap* (full join plus a heap top-k) and
  *any-k* (the bottom-up best-suffix DP, bounded by ``N^width`` of the
  ranked order, plus one frontier delay per surfaced result) — so
  ``ORDER BY ... LIMIT k`` with small k dispatches to the k-sensitive
  envelope instead of paying for the whole join.

These are heuristics on top of exact theory: the AGM term is a worst case,
not an expectation, and the binary estimates assume independence.  The
dispatcher therefore reports every estimate it computed so ``explain()``
can show its work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from repro.bounds.agm import AGMBound, agm_bound
from repro.bounds.degree_aware import output_size_bound
from repro.columnar import unsupported_reason as columnar_unsupported_reason
from repro.constraints.degree import constraints_from_database
from repro.engine.executors import filtered_instance
from repro.engine.registry import IndexRegistry
from repro.errors import QueryError
from repro.joins.binary_plans import greedy_atom_order
from repro.joins.hybrid import partition_instance, residual_query
from repro.query.atoms import ConjunctiveQuery
from repro.query.decomposition import is_alpha_acyclic
from repro.query.semiring import Aggregate
from repro.query.terms import Comparison
from repro.query.variable_order import (
    aggregate_elimination_order,
    ranked_order,
    skew_split,
)
from repro.relational.database import Database
from repro.relational.statistics import degree

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

#: Strategies that can evaluate aggregates inside the join itself (the
#: WCOJ recursions eliminate in-recursion; Yannakakis aggregates during
#: its join-tree passes, which additionally needs product semirings).
RECURSION_CAPABLE = ("generic", "leapfrog", "yannakakis")

#: Strategies that can enumerate ordered results in rank order (any-k):
#: the WCOJ recursions host the ranking-semiring frontier, Yannakakis the
#: annotated join-tree expansion.  Aggregate queries always drain — their
#: ordered output is the (small) group-row stream, not the join.
ANYK_CAPABLE = ("generic", "leapfrog", "yannakakis")

#: Accepted values for ``Engine.execute(..., backend=...)``: ``python``
#: (the default — the pure-Python reference oracle), ``columnar`` (sorted
#: NumPy layouts + batched galloping; transparently falls back to python
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

# Calibrated constants for this pure-Python implementation: hash-probe
# intersections (Generic-Join) run a little cheaper per element than bisect
# galloping (Leapfrog); either WCOJ engine pays one index-build pass.
_GENERIC_FACTOR = 2.0
_LEAPFROG_FACTOR = 2.5
_YANNAKAKIS_PASSES = 2.0
_YANNAKAKIS_OUTPUT_DISCOUNT = 0.25
# The columnar backend runs the same recursion batched through NumPy: the
# per-operation constant drops by roughly this factor (calibrated on the
# triangle/star benchmarks, where measured speedups are 20-100x; priced
# conservatively so the axis decides backend, never the envelope shape).
_COLUMNAR_FACTOR = 0.05


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
        Estimated operation counts per strategy (``inf`` = infeasible).
        Empty for forced modes, which skip the estimation work.  For
        aggregate queries the informational ``agg[recursion]`` /
        ``agg[fold]`` entries record the two execution-mode envelopes the
        dispatcher compared.
    binary_order:
        The greedy atom order the cost simulation priced — reused as the
        binary executor's plan so the plan run is the plan priced.  None
        when the binary strategy was neither priced nor chosen.
    aggregate_mode:
        The resolved aggregate execution mode for the chosen strategy
        (``"recursion"`` / ``"fold"``); None for non-aggregate queries.
    ranked_mode:
        The resolved ranked execution mode for the chosen strategy
        (``"anyk"`` / ``"drain"``); None for unordered queries.
    payload:
        The plan payload for the chosen strategy when the dispatcher
        already computed it (the mode-tagged aggregate order for WCOJ
        strategies, the mode tag for Yannakakis) — reused by the engine so
        the plan run is the plan priced.  None when the executor's own
        ``plan()`` should be used.
    faq_width:
        The fractional-hypertree width of the aggregate-aware variable
        order — the maximum over the tail's residual components, which
        is what the factorized eliminator pays (the FAQ-width proxy
        priced for in-recursion mode); None for non-aggregate queries.
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
    faq_width: float | None = None
    backend: str = "python"
    backend_fallback: str | None = None


def _capped(value: float) -> float:
    return min(value, _COST_CAP)


def _join_growth(query: ConjunctiveQuery, atom_index: int,
                 covered: set[str], size: int, database: Database) -> float:
    """Worst-case growth factor of joining atom ``atom_index`` into an
    intermediate covering ``covered``: the relation's maximum degree on the
    shared variables (``deg(everything else | shared)``)."""
    atom = query.atoms[atom_index]
    relation = database.get(atom.relation)
    shared_cols = [relation.attributes[p]
                   for p, v in enumerate(atom.variables) if v in covered]
    new_cols = [relation.attributes[p]
                for p, v in enumerate(atom.variables) if v not in covered]
    if not shared_cols:
        return float(max(size, 1))  # cartesian product
    if not new_cols:
        return 1.0  # semijoin-shaped: the intermediate cannot grow
    return float(max(1, degree(relation, shared_cols, new_cols)))


def _binary_cost(query: ConjunctiveQuery, database: Database,
                 sizes: dict[int, int], order: tuple[int, ...]) -> float:
    """Simulate the greedy left-deep plan with pessimistic estimates.

    Walks exactly the :func:`repro.joins.binary_plans.greedy_atom_order`
    the binary executor would run; each join's output is bounded by the
    current intermediate times the joined relation's max degree on the
    shared variables — a quantity the data actually achieves in the worst
    case, so skewed instances (where independence assumptions collapse) are
    priced honestly.  The cost charged is the materialized read+write work
    of every intermediate.
    """
    first, rest = order[0], order[1:]
    current_size = float(sizes[first])
    covered = set(query.atoms[first].variables)
    cost = current_size
    for chosen in rest:
        growth = _join_growth(query, chosen, covered, sizes[chosen], database)
        estimate = _capped(current_size * growth)
        cost = _capped(cost + current_size + sizes[chosen] + estimate)
        covered |= set(query.atoms[chosen].variables)
        current_size = max(estimate, 1.0)
    return cost


def selection_envelope(query: ConjunctiveQuery, database: Database,
                       selections: Sequence[Comparison], agm: AGMBound,
                       registry: IndexRegistry | None = None,
                       ) -> tuple[dict[int, int], float]:
    """Filtered per-atom scan sizes and the sharpened WCOJ envelope.

    Single-atom selections are applied to the scans (every executor pushes
    them below the join; ``== constant`` scans are seeks into
    ``registry``'s hash indexes), and the WCOJ envelope becomes the degree-aware
    worst-case output bound of that *filtered* instance
    (:func:`repro.bounds.degree_aware.output_size_bound`) — taken with
    ``min`` against the unfiltered AGM bound, it is still a sound worst
    case but no longer ignores the selectivity the executors exploit.
    Data-derived degree constraints (single-variable conditioning) are
    tried first; when their dependency graph is cyclic — where only the
    exponential polymatroid LP would apply — the envelope falls back to
    the plain AGM bound of the filtered instance (still taken with
    ``min`` against the unfiltered AGM bound), keeping planning cheap.

    An empty scan — a relation with no tuples, or one a selection
    filters out entirely — forces an empty join: the envelope is exactly
    zero, returned directly instead of routing a ``log2 0`` through the
    degree-constraint LPs (which must special-case it) or silently
    falling back to a pessimistic non-zero bound.
    """
    derived_query, derived_db, _residual = filtered_instance(
        query, selections, database, registry)
    sizes = {i: len(derived_db.get(atom.relation))
             for i, atom in enumerate(derived_query.atoms)}
    if any(size == 0 for size in sizes.values()):
        return sizes, 0.0
    if derived_db is database:
        return sizes, _capped(agm.bound)
    dc = constraints_from_database(derived_query, derived_db, max_key_size=1)
    if dc.is_acyclic():
        sharpened = output_size_bound(derived_query, derived_db, dc=dc).bound
    else:
        sharpened = output_size_bound(derived_query, derived_db).bound
    return sizes, _capped(min(agm.bound, sharpened))


def plan_aggregation(query: ConjunctiveQuery,
                     selections: Sequence[Comparison],
                     aggregates: Sequence[Aggregate],
                     group: Sequence[str]) -> dict:
    """The aggregate-aware order and the facts mode resolution needs.

    Returns a dict with the binding ``order`` (constant-pinned variables,
    then the group prefix, then the width-minimizing elimination tail,
    chosen and priced per residual component), its fractional-hypertree
    ``width`` — the *maximum component width*, the exponent of the
    factorized eliminator's exact FAQ bound — whether any variable is
    actually eliminated (``has_elimination``), and whether every
    aggregate's semiring carries a product (``product_ok`` — the
    precondition for Yannakakis' in-pass mode).
    """
    fixed = {sel.lhs for sel in selections
             if getattr(sel, "is_constant_equality", False)}
    # Without product semirings the eliminator cannot combine component
    # values, so the order and width must be those of the monolithic
    # fold — pricing the factorized exponent would promise a bound the
    # executor cannot achieve.
    product_ok = all(a.semiring().has_product for a in aggregates)
    order, width = aggregate_elimination_order(query, group=group,
                                               fixed=fixed,
                                               selections=selections,
                                               factorize=product_ok)
    return {
        "order": order,
        "width": width,
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
    width-minimizing existential tail), its fractional-hypertree
    ``width`` (the proxy for the bottom-up best-suffix DP's cost), and
    the normalized ``keys``.
    """
    fixed = {sel.lhs for sel in selections
             if getattr(sel, "is_constant_equality", False)}
    keys = tuple((variable, bool(descending))
                 for variable, descending in order_by)
    order, width = ranked_order(query, [v for v, _d in keys],
                                fixed=fixed, head=head,
                                selections=selections)
    return {"order": order, "width": width, "keys": keys}


def plan_hybrid(query: ConjunctiveQuery, database: Database) -> dict:
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
    variable, threshold, max_degree = skew_split(query, database)
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


def _hybrid_costs(query: ConjunctiveQuery, database: Database,
                  hybrid_plan: dict) -> tuple[float, float, float] | None:
    """(partition, heavy-side, light-side) cost terms, or None.

    The partition term is the two heavy/light scan passes over every
    touched relation.  The heavy side binds one of at most
    ``sum |R_i| / t`` distinct skew keys.  Under per-key residual
    Yannakakis sub-plans its cost is honest arithmetic, not an envelope:
    the touched restrictions are scanned once *in total* across keys
    (they partition the heavy tuples), while each relation the skew
    variable does not touch is scanned once per key — so the price is
    the semijoin passes over ``heavy_total + n_keys * untouched``
    (output is charged by the engine's stream itself).  A cyclic
    residual instead prices the one whole-side binary sub-plan with the
    same pessimistic greedy simulation pure binary gets.  The light
    side is priced like generic join, but its envelope is sharpened by
    the degree constraints the partition just *created* — every touched
    relation's per-key degree is <= t — via the degree-aware output
    bound; on skewed data heavy + light undercut the full instance's
    AGM term, which is the whole case for the hybrid.  None when either
    side is empty: a degenerate split means a pure strategy already
    does the same work without the partition passes.
    """
    part = partition_instance(query, database, hybrid_plan["variable"],
                              hybrid_plan["threshold"])
    if part.heavy_total == 0 or part.light_total == 0:
        return None
    partition_cost = 2.0 * float(part.heavy_total + part.light_total)
    if hybrid_plan["heavy_strategy"] == "yannakakis":
        untouched = float(sum(
            len(part.heavy_db.get(atom.relation))
            for i, atom in enumerate(part.heavy_query.atoms)
            if i not in part.touched))
        heavy_cost = _capped(_YANNAKAKIS_PASSES * (
            float(part.heavy_total)
            + len(part.heavy_keys) * untouched))
    else:
        heavy_sizes = {i: len(part.heavy_db.get(atom.relation))
                       for i, atom in enumerate(part.heavy_query.atoms)}
        heavy_cost = _capped(_binary_cost(
            part.heavy_query, part.heavy_db, heavy_sizes,
            greedy_atom_order(part.heavy_query, part.heavy_db)))
    light_input = float(sum(
        len(part.light_db.get(atom.relation))
        for atom in part.light_query.atoms))
    light_env = agm_bound(part.light_query, part.light_db).bound
    dc = constraints_from_database(part.light_query, part.light_db,
                                   max_key_size=1)
    if dc.is_acyclic():
        light_env = min(light_env,
                        output_size_bound(part.light_query, part.light_db,
                                          dc=dc).bound)
    light_cost = _capped(light_input + _GENERIC_FACTOR * light_env)
    return partition_cost, heavy_cost, light_cost


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


class _Pricing(NamedTuple):
    """What prices the one mode axis an aggregate or ordered query has.

    ``axis`` keys :data:`_VARIANTS`; ``inner_env`` is the envelope of the
    in-the-join variant (the above-the-join one pays the full join
    envelope); ``forced`` is the requested mode; ``prefer_inner`` breaks
    cost ties; ``yannakakis_inner_ok`` is whether Yannakakis can run the
    in-the-join variant at all (the WCOJ recursions always can).
    """

    axis: str
    inner_env: float
    forced: str
    prefer_inner: bool
    yannakakis_inner_ok: bool


class _Candidate(NamedTuple):
    """One strategy as priced: its cost and the modes that cost assumes."""

    cost: float
    aggregate_mode: str | None = None
    ranked_mode: str | None = None


def _pricing(axes: PlanAxes, sizes: dict[int, int], envelope: float,
             agg_plan: dict | None, ranked_plan: dict | None,
             limit: int | None) -> _Pricing | None:
    """The mode axis to price, or None for a plain query.

    Both in-the-join envelopes start from the same memoized-elimination
    term: ``N^width`` of the axis' variable order, capped by the join
    envelope (memoized elimination never expands more nodes than
    enumeration).  *Any-k* adds one frontier delay per surfaced result —
    without a LIMIT every result must surface, so the k term degenerates
    to the full envelope and drain wins on auto (the frontier would only
    add heap overhead to a full enumeration).  *In-recursion aggregation*
    pays the term as is, but a group-by keeping every variable eliminates
    nothing: both modes then enumerate the same nodes, are priced
    identically, and auto resolves to the simpler fold.
    """
    n_max = float(max(sizes.values(), default=1))

    def elimination(width: float) -> float:
        return _capped(min(envelope, max(n_max, 1.0) ** width))

    if ranked_plan is not None:
        k = float(limit) if limit is not None else envelope
        return _Pricing("ranked_mode",
                        _capped(elimination(ranked_plan["width"]) + k),
                        axes.ranked_mode, prefer_inner=False,
                        yannakakis_inner_ok=True)
    if agg_plan is not None:
        eliminates = agg_plan["has_elimination"]
        return _Pricing("aggregate_mode",
                        elimination(agg_plan["width"]) if eliminates
                        else envelope,
                        axes.aggregate_mode, prefer_inner=eliminates,
                        yannakakis_inner_ok=agg_plan["product_ok"])
    return None


def _estimate(query: ConjunctiveQuery, database: Database,
              sizes: dict[int, int], envelope: float, acyclic: bool,
              binary_order: tuple[int, ...], hybrid_plan: dict,
              pricing: _Pricing | None
              ) -> tuple[dict[str, _Candidate], dict[str, float]]:
    """Price every strategy: one candidate each, plus the informational
    cost entries (``hybrid[...]`` and the mode axis' two envelopes)."""
    total = float(sum(sizes.values()))
    info: dict[str, float] = {}

    # Cost as a function of the WCOJ envelope the strategy pays.
    by_envelope = {
        "generic": lambda env: _capped(total + _GENERIC_FACTOR * env),
        "leapfrog": lambda env: _capped(total + _LEAPFROG_FACTOR * env),
    }
    if acyclic:
        by_envelope["yannakakis"] = lambda env: _capped(
            _YANNAKAKIS_PASSES * total + _YANNAKAKIS_OUTPUT_DISCOUNT * env)

    naive = 1.0
    for size in sizes.values():
        naive = _capped(naive * max(size, 1))

    # The hybrid envelope: partition passes + heavy side + light side.
    # Only skewed instances are partitioned (and priced) at all.
    hybrid_terms = (_hybrid_costs(query, database, hybrid_plan)
                    if hybrid_plan["skewed"] else None)
    hybrid = math.inf
    if hybrid_terms is not None:
        partition_cost, heavy_cost, light_cost = hybrid_terms
        hybrid = _capped(partition_cost + heavy_cost + light_cost)
        info["hybrid[heavy]"] = heavy_cost
        info["hybrid[light]"] = light_cost

    candidates = {"yannakakis": _Candidate(math.inf)}
    outer_mode: dict[str, str] = {}
    inner_forced = False
    if pricing is None:
        for name, price in by_envelope.items():
            candidates[name] = _Candidate(price(envelope))
    else:
        label, inner, outer = _VARIANTS[pricing.axis]
        info[f"{label}[{inner}]"] = by_envelope["generic"](pricing.inner_env)
        info[f"{label}[{outer}]"] = by_envelope["generic"](envelope)
        for name, price in by_envelope.items():
            mode, cost = _resolve(
                pricing.forced, inner, outer,
                price(pricing.inner_env), price(envelope),
                inner_ok=name != "yannakakis" or pricing.yannakakis_inner_ok,
                prefer_inner=pricing.prefer_inner)
            candidates[name] = _Candidate(cost, **{pricing.axis: mode})
        outer_mode = {pricing.axis: outer}
        inner_forced = pricing.forced == inner
    # The materializing, naive and hybrid strategies never see the
    # envelope and run only the above-the-join variant: they fold or
    # sort the stream (the hybrid's sides stream full core tuples,
    # disjoint on the skew variable, so the engine's fold *is* the
    # ⊕-stitch) and are infeasible when the in-the-join one is forced.
    if inner_forced:
        for name in ("binary", "naive", "hybrid"):
            candidates[name] = _Candidate(math.inf)
    else:
        candidates["binary"] = _Candidate(
            _binary_cost(query, database, sizes, binary_order), **outer_mode)
        candidates["naive"] = _Candidate(naive, **outer_mode)
        candidates["hybrid"] = _Candidate(hybrid, **outer_mode)
    return candidates, info


def _payload_for(strategy: str, mode: str | None,
                 agg_plan: dict | None,
                 ranked_resolved: str | None = None,
                 ranked_plan: dict | None = None) -> tuple | None:
    """The dispatcher-computed plan payload for the chosen strategy.

    Any-k plans carry the ``("anyk", ranked order)`` tag; drain-ranked
    plans stay untagged (the executor runs its plain enumeration payload
    and the engine sorts above it).
    """
    if ranked_resolved == "anyk" and ranked_plan is not None:
        if strategy in ("generic", "leapfrog"):
            return ("anyk", ranked_plan["order"])
        if strategy == "yannakakis":
            return ("anyk", ())
        return None
    if agg_plan is None or mode is None:
        return None
    if strategy in ("generic", "leapfrog"):
        return (mode, agg_plan["order"])
    if strategy == "yannakakis":
        return (mode, ())
    return None


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
    """Choose an executor for the query (or validate a forced choice).

    Parameters
    ----------
    mode:
        ``"auto"`` picks the cheapest feasible strategy; any strategy name
        forces it (raising :class:`QueryError` when infeasible, e.g.
        ``"yannakakis"`` on a cyclic query).  Forced modes skip the cost
        estimation (the per-join degree scans in particular), paying only
        the acyclicity test and the AGM LP that ``explain()`` reports.
    selections:
        Rich-query comparison predicates; single-atom ones shrink the
        per-atom scan estimates *and* sharpen the WCOJ envelope to the
        degree-aware bound of the filtered instance.
    aggregates / group:
        The query's semiring aggregate heads and group-by variables; when
        present, both aggregate execution modes are priced and the
        decision carries the aggregate-aware variable order.
    aggregate_mode:
        ``"auto"`` resolves the mode per strategy by cost;
        ``"recursion"``/``"fold"`` force it (forcing ``"recursion"``
        restricts dispatch to the strategies that support it and raises
        when a forced strategy does not).
    order_by / limit:
        The query's sort keys (``(variable, descending)`` pairs) and its
        own LIMIT; for non-aggregate ordered queries the k-sensitive
        any-k envelope is priced against the full-join drain envelope
        (the ``ranked[anyk]`` / ``ranked[drain]`` cost entries).
    ranked_mode:
        ``"auto"`` resolves the ranked mode per strategy by cost (any-k
        needs a LIMIT to beat drain, since without one every result must
        surface anyway); ``"anyk"``/``"drain"`` force it (forcing
        ``"anyk"`` restricts dispatch to :data:`ANYK_CAPABLE` strategies
        and rejects aggregate queries, whose ordered output is the group
        stream, not the join).
    backend:
        ``"python"`` (default) runs the reference oracle; ``"columnar"``
        requests the vectorized backend, transparently resolving back to
        python (with the reason in ``backend_fallback``) whenever the
        query needs a feature outside the vectorized subset or the chosen
        strategy has no columnar form; ``"auto"`` compares the priced
        ``backend[python]``/``backend[columnar]`` envelopes.  Requesting
        ``columnar`` under ``mode="auto"`` steers strategy choice to the
        columnar-capable WCOJ strategies when the request can be honored.
    registry:
        The session's index registry: bound (``== constant``) scans are
        then sized by a seek into its hash indexes instead of a pass.
    """
    # Below this line the request is read from the record only.
    axes = PlanAxes(mode, aggregate_mode, ranked_mode, backend)
    aggregates = tuple(aggregates)
    order_by = tuple(order_by)
    axes.check(aggregates, order_by)
    acyclic = is_alpha_acyclic(query.hypergraph())
    bound = agm_bound(query, database)
    # The elimination-order search only serves auto pricing and the
    # recursion-capable strategies; a forced binary/naive run would
    # discard it (it always folds).
    needs_agg_plan = bool(aggregates) and (axes.mode == "auto"
                                           or axes.mode in RECURSION_CAPABLE)
    agg_plan = (plan_aggregation(query, selections, aggregates, group)
                if needs_agg_plan else None)
    needs_ranked_plan = (bool(order_by) and not aggregates
                         and (axes.mode == "auto"
                              or axes.mode in ANYK_CAPABLE))
    ranked_plan = (plan_ranked(query, selections, order_by, group)
                   if needs_ranked_plan else None)

    backend_resolved = "python"
    backend_fallback: str | None = None
    hybrid_plan: dict | None = None
    if axes.mode == "auto":
        binary_order = greedy_atom_order(query, database)
        sizes, envelope = selection_envelope(query, database, selections,
                                             bound, registry)
        hybrid_plan = plan_hybrid(query, database)
        candidates, costs = _estimate(
            query, database, sizes, envelope, acyclic, binary_order,
            hybrid_plan=hybrid_plan,
            pricing=_pricing(axes, sizes, envelope, agg_plan, ranked_plan,
                             limit))
        costs.update((s, candidates[s].cost) for s in STRATEGIES)
        strategy = min(STRATEGIES,
                       key=lambda s: (costs[s], STRATEGIES.index(s)))
        if costs[strategy] == math.inf:
            raise QueryError(
                f"no feasible strategy for query {query.name!r} under "
                f"aggregate_mode={axes.aggregate_mode!r}, "
                f"ranked_mode={axes.ranked_mode!r}"
            )
        # Price the backend axis: the best columnar-capable strategy at
        # the vectorized constant vs the best python strategy.  Recorded
        # even for default-python requests so explain() always shows both
        # envelopes.
        candidate = min(COLUMNAR_CAPABLE,
                        key=lambda s: (costs[s], STRATEGIES.index(s)))
        columnar_reason = columnar_unsupported_reason(
            selections=selections, aggregates=aggregates,
            ranked_mode=candidates[candidate].ranked_mode)
        if columnar_reason is not None or costs[candidate] == math.inf:
            columnar_cost = math.inf
        else:
            columnar_cost = _capped(_COLUMNAR_FACTOR * costs[candidate])
        costs["backend[python]"] = costs[strategy]
        costs["backend[columnar]"] = columnar_cost
        if axes.backend != "python":
            if columnar_cost == math.inf:
                backend_fallback = (columnar_reason
                                    or "no feasible columnar-capable strategy")
            elif axes.backend == "columnar" or columnar_cost < costs[strategy]:
                strategy = candidate
                backend_resolved = "columnar"
            else:
                backend_fallback = "python backend priced cheaper"
        resolved = candidates[strategy].aggregate_mode
        ranked_resolved = candidates[strategy].ranked_mode
        if order_by and ranked_resolved is None:
            ranked_resolved = "drain"  # ordered aggregate queries
    else:
        strategy = axes.mode
        if strategy == "yannakakis" and not acyclic:
            raise QueryError(
                f"strategy {strategy!r} is infeasible for query {query.name!r} "
                f"(cyclic query?); use mode='auto' or a WCOJ mode"
            )
        binary_order = (greedy_atom_order(query, database)
                        if strategy == "binary" else None)
        costs = {}
        resolved = None
        ranked_resolved = None
        # Forced strategies skip the cost comparison: the same resolver
        # runs on equal costs, so the tie-break alone decides — aggregate
        # inside the join when that eliminates something, rank-enumerate
        # when a LIMIT bounds the prefix any-k gets to stop at.
        if aggregates:
            # agg_plan is None exactly when the strategy cannot aggregate
            # inside the join at all (see needs_agg_plan above).
            resolved, _cost = _resolve(
                axes.aggregate_mode, "recursion", "fold", 0.0, 0.0,
                inner_ok=agg_plan is not None and (
                    strategy != "yannakakis" or agg_plan["product_ok"]),
                prefer_inner=(agg_plan is not None
                              and agg_plan["has_elimination"]))
            if resolved is None:
                raise QueryError(
                    "aggregate_mode='recursion' needs product semirings "
                    "for every aggregate under strategy 'yannakakis'"
                    if strategy == "yannakakis" else
                    f"strategy {strategy!r} cannot aggregate in-recursion; "
                    "use a WCOJ mode, 'yannakakis', or aggregate_mode='fold'"
                )
        if order_by:
            ranked_resolved, _cost = _resolve(
                axes.ranked_mode, "anyk", "drain", 0.0, 0.0,
                inner_ok=strategy in ANYK_CAPABLE and not aggregates,
                prefer_inner=limit is not None)
            if ranked_resolved is None:
                raise QueryError(
                    f"strategy {strategy!r} cannot enumerate in rank "
                    "order; use a WCOJ mode, 'yannakakis', or "
                    "ranked_mode='drain'"
                )
        if axes.backend != "python":
            if strategy not in COLUMNAR_CAPABLE:
                backend_fallback = (
                    f"strategy {strategy!r} has no columnar implementation")
            else:
                backend_fallback = columnar_unsupported_reason(
                    selections=selections, aggregates=aggregates,
                    ranked_mode=ranked_resolved)
            if backend_fallback is None:
                backend_resolved = "columnar"
    if strategy == "hybrid":
        if hybrid_plan is None:
            hybrid_plan = plan_hybrid(query, database)
        payload = ("hybrid", hybrid_plan["variable"],
                   hybrid_plan["threshold"],
                   hybrid_plan["heavy_strategy"],
                   hybrid_plan["light_strategy"])
    else:
        payload = _payload_for(strategy, resolved, agg_plan,
                               ranked_resolved, ranked_plan)
    return DispatchDecision(
        strategy=strategy, acyclic=acyclic, agm=bound, costs=costs,
        binary_order=binary_order,
        aggregate_mode=resolved,
        ranked_mode=ranked_resolved,
        payload=payload,
        faq_width=agg_plan["width"] if agg_plan is not None else None,
        backend=backend_resolved,
        backend_fallback=backend_fallback,
    )
