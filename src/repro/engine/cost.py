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
from typing import Sequence

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


def _resolve_mode(forced: str, recursion_cost: float, fold_cost: float,
                  recursion_ok: bool, prefer_recursion: bool
                  ) -> tuple[str | None, float]:
    """Pick an aggregate mode for one strategy (None = infeasible)."""
    if forced == "recursion":
        return ("recursion", recursion_cost) if recursion_ok else (None, math.inf)
    if forced == "fold":
        return ("fold", fold_cost)
    if not recursion_ok:
        return ("fold", fold_cost)
    if recursion_cost < fold_cost or (recursion_cost == fold_cost
                                      and prefer_recursion):
        return ("recursion", recursion_cost)
    return ("fold", fold_cost)


def _resolve_ranked(forced: str, anyk_cost: float, drain_cost: float,
                    anyk_ok: bool) -> tuple[str | None, float]:
    """Pick a ranked mode for one strategy (None = infeasible).

    Ties go to drain: with nothing to gain from stopping early, the
    plain enumerate-and-heap pipeline avoids the frontier's overhead.
    """
    if forced == "anyk":
        return ("anyk", anyk_cost) if anyk_ok else (None, math.inf)
    if forced == "drain":
        return ("drain", drain_cost)
    if anyk_ok and anyk_cost < drain_cost:
        return ("anyk", anyk_cost)
    return ("drain", drain_cost)


def estimate_costs(query: ConjunctiveQuery, database: Database,
                   agm: AGMBound, acyclic: bool,
                   binary_order: tuple[int, ...] | None = None,
                   selections: Sequence[Comparison] = (),
                   aggregates: Sequence[Aggregate] = (),
                   group: Sequence[str] = (),
                   aggregate_mode: str = "auto",
                   order_by: Sequence[tuple[str, bool]] = (),
                   limit: int | None = None,
                   ranked_mode: str = "auto",
                   ) -> dict[str, float]:
    """Estimated operation counts for every strategy on this instance.

    ``binary_order`` lets the dispatcher share one greedy-order computation
    between pricing and planning; it is recomputed when omitted.
    ``selections`` (rich-query predicates) shrink the per-atom scan sizes
    *and* the WCOJ envelope (see :func:`selection_envelope`); with
    ``aggregates`` the in-recursion and stream-fold execution modes are
    both priced, and with ``order_by`` (non-aggregate queries) the any-k
    and drain-and-heap ranked modes are (see :func:`dispatch` for how the
    modes are then resolved).
    """
    sizes, envelope = selection_envelope(query, database, selections, agm)
    agg_plan = (plan_aggregation(query, selections, aggregates, group)
                if aggregates else None)
    ranked_plan = (plan_ranked(query, selections, order_by, group)
                   if order_by and not aggregates else None)
    hybrid_plan = plan_hybrid(query, database)
    costs, _modes, _ranked = _estimate(query, database, sizes, envelope,
                                       acyclic, binary_order, agg_plan,
                                       aggregate_mode, ranked_plan,
                                       ranked_mode, limit, hybrid_plan)
    return costs


def _ranked_envelopes(envelope: float, n_max: float, width: float,
                      limit: int | None) -> tuple[float, float]:
    """(any-k envelope, drain envelope) for one ordered query.

    The any-k term prices the bottom-up best-suffix DP — the memoized
    elimination over the ranked order, bounded by ``N^width`` and never
    worse than plain enumeration — plus one frontier delay per surfaced
    result.  Without a LIMIT every result must surface, so the k term
    degenerates to the full envelope and drain wins on auto (the frontier
    would only add heap overhead to a full enumeration).
    """
    dp = _capped(min(envelope, max(n_max, 1.0) ** width))
    k = float(limit) if limit is not None else envelope
    return _capped(dp + k), envelope


def _estimate(query: ConjunctiveQuery, database: Database,
              sizes: dict[int, int], envelope: float, acyclic: bool,
              binary_order: tuple[int, ...] | None,
              agg_plan: dict | None, aggregate_mode: str,
              ranked_plan: dict | None = None,
              ranked_mode: str = "auto",
              limit: int | None = None,
              hybrid_plan: dict | None = None,
              ) -> tuple[dict[str, float], dict[str, str | None],
                         dict[str, str | None]]:
    """Per-strategy costs plus each strategy's resolved aggregate and
    ranked modes."""
    total = float(sum(sizes.values()))
    if binary_order is None:
        binary_order = greedy_atom_order(query, database)

    naive = 1.0
    for size in sizes.values():
        naive = _capped(naive * max(size, 1))

    modes: dict[str, str | None] = {s: None for s in STRATEGIES}
    ranked: dict[str, str | None] = {s: None for s in STRATEGIES}
    costs: dict[str, float] = {}

    # The hybrid envelope: partition passes + heavy side + light side.
    # Only skewed instances are partitioned (and priced) at all.
    hybrid_terms = (_hybrid_costs(query, database, hybrid_plan)
                    if hybrid_plan is not None and hybrid_plan["skewed"]
                    else None)
    if hybrid_terms is None:
        hybrid_total = math.inf
    else:
        partition_cost, heavy_cost, light_cost = hybrid_terms
        hybrid_total = _capped(partition_cost + heavy_cost + light_cost)
        costs["hybrid[heavy]"] = heavy_cost
        costs["hybrid[light]"] = light_cost

    if ranked_plan is not None:
        # Ordered, non-aggregate query: price any-k (stop after k) against
        # drain-and-heap (full join) per strategy.
        n_max = float(max(sizes.values(), default=1))
        anyk_env, drain_env = _ranked_envelopes(
            envelope, n_max, ranked_plan["width"], limit)
        costs["ranked[anyk]"] = _capped(total + _GENERIC_FACTOR * anyk_env)
        costs["ranked[drain]"] = _capped(total + _GENERIC_FACTOR * drain_env)
        for name, factor in (("generic", _GENERIC_FACTOR),
                             ("leapfrog", _LEAPFROG_FACTOR)):
            mode, cost = _resolve_ranked(
                ranked_mode,
                _capped(total + factor * anyk_env),
                _capped(total + factor * drain_env),
                anyk_ok=True)
            ranked[name] = mode
            costs[name] = cost
        if acyclic:
            mode, cost = _resolve_ranked(
                ranked_mode,
                _capped(_YANNAKAKIS_PASSES * total
                        + _YANNAKAKIS_OUTPUT_DISCOUNT * anyk_env),
                _capped(_YANNAKAKIS_PASSES * total
                        + _YANNAKAKIS_OUTPUT_DISCOUNT * drain_env),
                anyk_ok=True)
            ranked["yannakakis"] = mode
            costs["yannakakis"] = cost
        else:
            costs["yannakakis"] = math.inf
        # The materializing, naive, and hybrid strategies can only drain.
        if ranked_mode == "anyk":
            costs["binary"] = math.inf
            costs["naive"] = math.inf
            costs["hybrid"] = math.inf
        else:
            costs["binary"] = _binary_cost(query, database, sizes,
                                           binary_order)
            costs["naive"] = naive
            ranked["binary"] = ranked["naive"] = "drain"
            costs["hybrid"] = hybrid_total
            if hybrid_total != math.inf:
                ranked["hybrid"] = "drain"
        return costs, modes, ranked

    if agg_plan is None:
        costs["generic"] = _capped(total + _GENERIC_FACTOR * envelope)
        costs["leapfrog"] = _capped(total + _LEAPFROG_FACTOR * envelope)
        costs["yannakakis"] = (
            _capped(_YANNAKAKIS_PASSES * total
                    + _YANNAKAKIS_OUTPUT_DISCOUNT * envelope)
            if acyclic else math.inf
        )
        costs["binary"] = _binary_cost(query, database, sizes, binary_order)
        costs["naive"] = naive
        costs["hybrid"] = hybrid_total
        return costs, modes, ranked

    # Aggregate pricing: the in-recursion envelope is the FAQ-width term
    # of the aggregate-aware order (capped by the join envelope — memoized
    # elimination never expands more nodes than enumeration), the fold
    # envelope is the full join.  A group-by keeping every variable
    # eliminates nothing, so both modes enumerate the same nodes and are
    # priced identically (auto then resolves to the simpler fold).
    n_max = float(max(sizes.values(), default=1))
    fold_env = envelope
    if agg_plan["has_elimination"]:
        recursion_env = _capped(min(envelope,
                                    max(n_max, 1.0) ** agg_plan["width"]))
    else:
        recursion_env = fold_env
    costs["agg[recursion]"] = _capped(total + _GENERIC_FACTOR * recursion_env)
    costs["agg[fold]"] = _capped(total + _GENERIC_FACTOR * fold_env)
    prefer = agg_plan["has_elimination"]

    for name, factor in (("generic", _GENERIC_FACTOR),
                         ("leapfrog", _LEAPFROG_FACTOR)):
        mode, env = _resolve_mode(
            aggregate_mode,
            _capped(total + factor * recursion_env),
            _capped(total + factor * fold_env),
            recursion_ok=True, prefer_recursion=prefer)
        modes[name] = mode
        costs[name] = env
    if acyclic:
        mode, env = _resolve_mode(
            aggregate_mode,
            _capped(_YANNAKAKIS_PASSES * total
                    + _YANNAKAKIS_OUTPUT_DISCOUNT * recursion_env),
            _capped(_YANNAKAKIS_PASSES * total
                    + _YANNAKAKIS_OUTPUT_DISCOUNT * fold_env),
            recursion_ok=agg_plan["product_ok"], prefer_recursion=prefer)
        modes["yannakakis"] = mode
        costs["yannakakis"] = env
    else:
        costs["yannakakis"] = math.inf
    # The materializing, naive, and hybrid strategies can only fold the
    # stream (the hybrid's sides stream full core tuples, disjoint on the
    # skew variable, so the engine's fold *is* the ⊕-stitch).
    if aggregate_mode == "recursion":
        costs["binary"] = math.inf
        costs["naive"] = math.inf
        costs["hybrid"] = math.inf
    else:
        costs["binary"] = _binary_cost(query, database, sizes, binary_order)
        costs["naive"] = naive
        modes["binary"] = modes["naive"] = "fold"
        costs["hybrid"] = hybrid_total
        if hybrid_total != math.inf:
            modes["hybrid"] = "fold"
    return costs, modes, ranked


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
    if backend not in BACKENDS:
        raise QueryError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if mode not in MODES:
        raise QueryError(f"unknown engine mode {mode!r}; expected one of {MODES}")
    if aggregate_mode not in AGGREGATE_MODES:
        raise QueryError(
            f"unknown aggregate mode {aggregate_mode!r}; "
            f"expected one of {AGGREGATE_MODES}"
        )
    if ranked_mode not in RANKED_MODES:
        raise QueryError(
            f"unknown ranked mode {ranked_mode!r}; "
            f"expected one of {RANKED_MODES}"
        )
    aggregates = tuple(aggregates)
    order_by = tuple(order_by)
    if aggregate_mode != "auto" and not aggregates:
        raise QueryError(
            f"aggregate_mode={aggregate_mode!r} needs an aggregate query"
        )
    if ranked_mode != "auto" and not order_by:
        raise QueryError(
            f"ranked_mode={ranked_mode!r} needs an ORDER BY query"
        )
    if ranked_mode == "anyk" and aggregates:
        raise QueryError(
            "ranked_mode='anyk' does not apply to aggregate queries; "
            "their ordered output is the folded group stream"
        )
    acyclic = is_alpha_acyclic(query.hypergraph())
    bound = agm_bound(query, database)
    # The elimination-order search only serves auto pricing and the
    # recursion-capable strategies; a forced binary/naive run would
    # discard it (it always folds).
    needs_agg_plan = bool(aggregates) and (mode == "auto"
                                           or mode in RECURSION_CAPABLE)
    agg_plan = (plan_aggregation(query, selections, aggregates, group)
                if needs_agg_plan else None)
    needs_ranked_plan = (bool(order_by) and not aggregates
                         and (mode == "auto" or mode in ANYK_CAPABLE))
    ranked_plan = (plan_ranked(query, selections, order_by, group)
                   if needs_ranked_plan else None)

    backend_resolved = "python"
    backend_fallback: str | None = None
    hybrid_plan: dict | None = None
    if mode == "auto":
        binary_order = greedy_atom_order(query, database)
        sizes, envelope = selection_envelope(query, database, selections,
                                             bound, registry)
        hybrid_plan = plan_hybrid(query, database)
        costs, modes, ranked_modes = _estimate(
            query, database, sizes, envelope, acyclic, binary_order,
            agg_plan, aggregate_mode, ranked_plan, ranked_mode, limit,
            hybrid_plan)
        strategy = min(STRATEGIES,
                       key=lambda s: (costs[s], STRATEGIES.index(s)))
        if costs[strategy] == math.inf:
            raise QueryError(
                f"no feasible strategy for query {query.name!r} under "
                f"aggregate_mode={aggregate_mode!r}, "
                f"ranked_mode={ranked_mode!r}"
            )
        # Price the backend axis: the best columnar-capable strategy at
        # the vectorized constant vs the best python strategy.  Recorded
        # even for default-python requests so explain() always shows both
        # envelopes.
        candidate = min(COLUMNAR_CAPABLE,
                        key=lambda s: (costs[s], STRATEGIES.index(s)))
        columnar_reason = columnar_unsupported_reason(
            selections=selections, aggregates=aggregates,
            ranked_mode=ranked_modes[candidate])
        if columnar_reason is not None or costs[candidate] == math.inf:
            columnar_cost = math.inf
        else:
            columnar_cost = _capped(_COLUMNAR_FACTOR * costs[candidate])
        costs["backend[python]"] = costs[strategy]
        costs["backend[columnar]"] = columnar_cost
        if backend != "python":
            if columnar_cost == math.inf:
                backend_fallback = (columnar_reason
                                    or "no feasible columnar-capable strategy")
            elif backend == "columnar" or columnar_cost < costs[strategy]:
                strategy = candidate
                backend_resolved = "columnar"
            else:
                backend_fallback = "python backend priced cheaper"
        resolved = modes[strategy]
        ranked_resolved = ranked_modes[strategy]
        if order_by and ranked_resolved is None:
            ranked_resolved = "drain"  # ordered aggregate queries
    else:
        strategy = mode
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
        if aggregates:
            # Forced strategies skip the cost comparison; the auto rule is
            # simply "aggregate inside the join when it eliminates
            # something and the strategy supports it" — matching how the
            # priced path resolves equal envelopes.
            if strategy in ("generic", "leapfrog"):
                resolved = (aggregate_mode if aggregate_mode != "auto"
                            else ("recursion" if agg_plan["has_elimination"]
                                  else "fold"))
            elif strategy == "yannakakis":
                if aggregate_mode == "recursion" and not agg_plan["product_ok"]:
                    raise QueryError(
                        "aggregate_mode='recursion' needs product semirings "
                        "for every aggregate under strategy 'yannakakis'"
                    )
                resolved = (aggregate_mode if aggregate_mode != "auto"
                            else ("recursion" if (agg_plan["has_elimination"]
                                                  and agg_plan["product_ok"])
                                  else "fold"))
            else:
                if aggregate_mode == "recursion":
                    raise QueryError(
                        f"strategy {strategy!r} cannot aggregate in-recursion; "
                        "use a WCOJ mode, 'yannakakis', or aggregate_mode='fold'"
                    )
                resolved = "fold"
        if order_by:
            if aggregates:
                ranked_resolved = "drain"
            elif strategy in ANYK_CAPABLE:
                # Forced strategies skip the cost comparison; the auto
                # rule mirrors the priced one: rank-enumerate exactly when
                # a LIMIT bounds the prefix any-k gets to stop at.
                ranked_resolved = (ranked_mode if ranked_mode != "auto"
                                   else ("anyk" if limit is not None
                                         else "drain"))
            else:
                if ranked_mode == "anyk":
                    raise QueryError(
                        f"strategy {strategy!r} cannot enumerate in rank "
                        "order; use a WCOJ mode, 'yannakakis', or "
                        "ranked_mode='drain'"
                    )
                ranked_resolved = "drain"
        if backend != "python":
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
