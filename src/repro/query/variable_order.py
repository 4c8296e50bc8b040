"""Variable-ordering heuristics for WCOJ algorithms.

Generic-Join, Leapfrog Triejoin and the backtracking-search algorithm all fix
a global variable order and then compute one variable at a time.  Worst-case
optimality does not depend on the order (any order achieves the AGM bound for
cardinality constraints), but practical performance does; these heuristics
are the standard ones used by engines built on these algorithms.
"""

from __future__ import annotations

import itertools
import math

from dataclasses import dataclass
from typing import Any, Callable, Collection, Sequence

from repro.errors import QueryError
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import pinned_constants
from repro.relational.database import Database
from repro.relational.statistics import DegreeCatalog, catalog_lookup


#: Bounded memo tables for the pure order functions.  Both
#: :func:`min_degree_order` and :func:`_best_tail_order` are pure
#: functions of hashable inputs, yet were re-run on every call — the
#: tail scorer re-enumerating up to ``max_exact_tail!`` permutations
#: (each scored through a tree decomposition) every time the dispatcher
#: priced the same query: repeated one-shot calls, profile/analyze runs
#: pricing all strategies, and re-plans of queries the plan cache had
#: already seen.  FIFO eviction (dicts preserve insertion order) keeps
#: the tables bounded without LRU bookkeeping.
_ORDER_MEMO_MAX = 1024
_min_degree_memo: dict = {}
_tail_order_memo: dict = {}


def _memoize(cache: dict, key: Any, compute: Callable[[], Any]) -> Any:
    """Serve ``compute()`` through ``cache`` under FIFO eviction."""
    if key in cache:
        return cache[key]
    value = compute()
    if len(cache) >= _ORDER_MEMO_MAX:
        cache.pop(next(iter(cache)))
    cache[key] = value
    return value


def min_degree_order(query: ConjunctiveQuery) -> tuple[str, ...]:
    """Order variables by decreasing atom-degree (number of atoms containing
    them), breaking ties by variable name.

    Variables shared by many atoms are intersected against many relations,
    which tends to shrink the search space early.  The explicit name
    tie-break makes the order a pure function of the query *structure*, not
    of the order atoms happen to be listed in — two syntactic permutations of
    the same query always evaluate with the same variable order, which is
    what the engine's plan cache relies on when it reuses orders across
    isomorphic queries.  Being pure, the result is memoized per query.
    """
    def compute() -> tuple[str, ...]:
        return tuple(
            sorted(
                query.variables,
                key=lambda v: (-len(query.atoms_containing(v)), v),
            )
        )

    try:
        return _memoize(_min_degree_memo, query, compute)
    except TypeError:  # unhashable constants in atoms
        return compute()


def pushdown_order(query: ConjunctiveQuery,
                   fixed: Collection[str] = (),
                   leading: Collection[str] = ()) -> tuple[str, ...]:
    """A min-degree order refined for selection/projection pushdown.

    Variables pinned to a single value by a constant-equality selection
    (``fixed``) come first — binding them at the top restricts every atom
    containing them for the entire search, which is what makes constant
    pushdown run *below* the join.  The ``leading`` block (head /
    group-by variables) follows, so that with every earlier variable
    pinned, the head variables form a prefix of the order and projection
    can deduplicate *early*: the trailing variables are existential and
    the recursion stops at their first witness.  The remaining variables
    close the order.  Within each block the min-degree heuristic (with
    its name tie-break) applies, so the result is still a pure function
    of the query structure.

    Head-first is not always cheaper: it can bind a head variable that no
    earlier variable guards (a pinned 2-hop ``Q(C) :- R(a,B), S(B,C)``
    enumerates every ``C`` of ``S``).  Without ``leading`` the order is
    the *guarded* one, each variable placed by its own degree; for a
    strict projection the dispatcher prices both and runs the cheaper
    (:func:`repro.engine.cost.dispatch`).
    """
    blocks = {v: 0 for v in fixed}
    for v in leading:
        blocks.setdefault(v, 1)
    return tuple(
        sorted(
            query.variables,
            key=lambda v: (blocks.get(v, 2),
                           -len(query.atoms_containing(v)), v),
        )
    )


def skew_split(query: ConjunctiveQuery, database: Database,
               statistics: Callable[[str], DegreeCatalog] | None = None,
               ) -> tuple[str, float, int]:
    """Pick the hybrid strategy's skew variable and degree threshold.

    For each variable v the candidate threshold is the paper's
    |R|^(1/2)-style balancing point — sqrt of the largest relation
    touching v (heavy side gets <= sqrt|R| distinct keys, light side
    degree <= sqrt|R|) — and the skew evidence is the maximum per-value
    degree of v over its touching relations.  The variable with the
    largest degree/threshold ratio wins (name tie-break), so the returned
    triple ``(variable, threshold, max_degree)`` is a pure function of
    the instance statistics.  ``max_degree <= threshold`` means the
    instance shows no skew worth partitioning on.  Degrees are read from
    ``statistics`` (relation name -> :class:`DegreeCatalog`, e.g.
    ``IndexRegistry.statistics``; built for the call when omitted).
    """
    statistics = statistics or catalog_lookup(database)
    best: tuple[float, str, float, int] | None = None
    for v in query.variables:
        deg = 0
        size = 0
        for atom in query.atoms_containing(v):
            catalog = statistics(atom.relation)
            attr = catalog.relation.attributes[atom.variables.index(v)]
            deg = max(deg, catalog.max_degree((attr,)))
            size = max(size, catalog.cardinality)
        threshold = math.sqrt(size)
        score = deg / threshold if threshold > 0 else 0.0
        if best is None or score > best[0] or (score == best[0] and v < best[1]):
            best = (score, v, threshold, deg)
    if best is None:  # pragma: no cover - atoms always carry variables
        raise ValueError("query has no variables to split on")
    return best[1], best[2], best[3]


def hybrid_light_order(query: ConjunctiveQuery, skew: str,
                       fixed: Collection[str] = (),
                       leading: Collection[str] = ()) -> tuple[str, ...]:
    """The light-side variable order for a hybrid plan.

    Like :func:`pushdown_order` but with the skew variable promoted to
    its own block right after the constant-fixed variables: binding the
    partition variable first keeps every light-side intersection below
    the degree threshold from the very top of the search, which is the
    whole point of the light residual.
    """
    blocks = {v: 0 for v in fixed}
    blocks.setdefault(skew, 1)
    for v in leading:
        blocks.setdefault(v, 2)
    return tuple(
        sorted(
            query.variables,
            key=lambda v: (blocks.get(v, 3),
                           -len(query.atoms_containing(v)), v),
        )
    )


def _best_tail_order(query: ConjunctiveQuery, prefix: tuple[str, ...],
                     tail: tuple[str, ...], max_exact_tail: int,
                     selections: Sequence = (), factorize: bool = True,
                     ) -> tuple[str, ...]:
    """The prefix + width-minimizing tail, chosen *per residual component*.

    Shared by the aggregate and ranked planners.  Conditioned on the
    prefix (the separator the executors bind before eliminating), the
    tail splits into the connected components of the residual hypergraph
    (:meth:`repro.query.hypergraph.Hypergraph.residual_components`, the
    query's ``selections`` passed as couplings so a predicate spanning
    components glues them — exactly the split the factorized eliminator
    executes).  Each component's permutation is therefore chosen on its
    own: candidates are ranked by the integer width of the tree
    decomposition their reversed binding order induces on the
    component's induced sub-hypergraph (elimination runs
    innermost-first).  The order is what dispatch uses; it prices the
    order with the Theorem 5.1 walk, not with a width.

    Choosing per component also shrinks the search: a tail of three
    independent pairs costs ``3·2!`` candidate scores instead of ``6!``,
    and a component longer than ``max_exact_tail`` falls back to its
    heuristic single candidate without giving up exactness elsewhere.

    ``factorize=False`` chooses the whole tail as one component — the
    order a *monolithic* fold runs, which is what callers must plan when
    an aggregate's semiring has no product and the executor cannot
    factorize.

    The result is memoized: the function is pure, and its inputs affect
    the answer only through the hypergraph, the prefix/tail split and the
    selections' variable sets (couplings), so repeated pricing of the
    same query — every ``profile``/``analyze`` run re-dispatches it, and
    isomorphic re-plans recompute it — skips the permutation sweep.
    """
    def compute() -> tuple[str, ...]:
        return _score_tail_order(query, prefix, tail, max_exact_tail,
                                 selections, factorize)

    try:
        key = (query, prefix, tail, max_exact_tail,
               tuple(frozenset(sel.variables) for sel in selections),
               bool(factorize))
        return _memoize(_tail_order_memo, key, compute)
    except TypeError:  # unhashable constants in atoms or selections
        return compute()


def _score_tail_order(query: ConjunctiveQuery, prefix: tuple[str, ...],
                      tail: tuple[str, ...], max_exact_tail: int,
                      selections: Sequence = (), factorize: bool = True,
                      ) -> tuple[str, ...]:
    """The uncached permutation sweep behind :func:`_best_tail_order`."""
    from repro.query.widths import decomposition_from_elimination_order

    if not tail:
        return prefix
    hypergraph = query.hypergraph()
    tail_position = {v: i for i, v in enumerate(tail)}
    if factorize:
        split = hypergraph.residual_components(
            prefix, couplings=[sel.variables for sel in selections])
    else:
        split = (frozenset(tail),)
    components = sorted(
        (tuple(sorted(c, key=tail_position.__getitem__)) for c in split),
        key=lambda c: tail_position[c[0]],
    )

    order = prefix
    for component in components:
        if len(component) == 1 or len(component) > max_exact_tail:
            order = order + component
            continue
        sub = (hypergraph if len(components) == 1
               else hypergraph.restrict_to(set(prefix) | set(component)))
        order = order + min(
            itertools.permutations(component),
            key=lambda perm: decomposition_from_elimination_order(
                sub, tuple(reversed(prefix + perm))).width())
    return order


def aggregate_elimination_order(query: ConjunctiveQuery,
                                group: Collection[str] = (),
                                fixed: Collection[str] = (),
                                max_exact_tail: int = 5,
                                selections: Sequence = (),
                                factorize: bool = True,
                                ) -> tuple[str, ...]:
    """A binding order for in-recursion (FAQ-style) aggregation.

    The returned order keeps the constant-pinned variables (``fixed``) and
    then the group-by variables (``group``) as a prefix — the shape
    :func:`repro.joins.generic_join.wcoj_stream` requires so each group
    binding's tail collapses to semiring values — and chooses the
    *elimination tail* to minimize induced width: every candidate tail
    permutation is scored by the tree decomposition its reversed order
    induces (:func:`repro.query.widths.decomposition_from_elimination_order`
    — FAQ eliminates innermost-first, so the elimination order is the
    binding order reversed), by its integer width (no LP).  For
    alpha-acyclic queries some tail achieves width 1, which is what makes
    acyclic group-bys output-linear instead of join-linear.

    Tails longer than ``max_exact_tail`` fall back to the min-degree
    heuristic (one candidate) rather than enumerating permutations.  The
    prefix is ordered by the same block heuristic as
    :func:`pushdown_order`, so the whole result is a deterministic
    function of the query structure.  The tail is chosen per residual
    component (``selections`` glue the components they span;
    ``factorize=False`` chooses it for the monolithic fold instead — see
    :func:`_best_tail_order`).
    """
    base = pushdown_order(query, fixed=fixed, leading=group)
    prefix_set = set(fixed) | set(group)
    prefix = tuple(v for v in base if v in prefix_set)
    tail = tuple(v for v in base if v not in prefix_set)
    return _best_tail_order(query, prefix, tail, max_exact_tail,
                            selections=selections, factorize=factorize)


def ranked_order(query: ConjunctiveQuery,
                 keys: Sequence[str],
                 fixed: Collection[str] = (),
                 head: Collection[str] = (),
                 max_exact_tail: int = 5,
                 selections: Sequence = (),
                 ) -> tuple[str, ...]:
    """A binding order for any-k ranked enumeration.

    The order any-k needs mirrors the aggregate prefix machinery, with the
    ORDER BY columns joining it: constant-pinned variables (``fixed``)
    first, then the ORDER BY ``keys`` *in key sequence* (so the priority
    frontier's pops are keyed on complete, distinct sort-key prefixes),
    then the remaining ``head`` variables (so emission enumerates each
    rank-tie class without a dedup set), and finally the existential tail,
    chosen to minimize induced width exactly like
    :func:`aggregate_elimination_order` — the tail is what the boolean
    and ranking eliminators fold away, and its width governs the cost of
    the bottom-up best-suffix DP.
    """
    fixed_set = set(fixed)
    key_block: list[str] = []
    for key in keys:
        if key not in fixed_set and key not in key_block:
            key_block.append(key)
    base = pushdown_order(query, fixed=fixed, leading=head)
    prefix_set = fixed_set | set(key_block) | set(head)
    prefix = (tuple(v for v in base if v in fixed_set)
              + tuple(key_block)
              + tuple(v for v in base
                      if v in prefix_set
                      and v not in fixed_set and v not in key_block))
    tail = tuple(v for v in base if v not in prefix_set)
    return _best_tail_order(query, prefix, tail, max_exact_tail,
                            selections=selections)


def validate_order(query: ConjunctiveQuery, order: Sequence[str]) -> tuple[str, ...]:
    """Check that ``order`` is a permutation of the query variables and return
    it as a tuple.

    Raises
    ------
    ValueError
        If the order misses or repeats variables.
    """
    order = tuple(order)
    if sorted(order) != sorted(query.variables):
        raise ValueError(
            f"variable order {order} is not a permutation of {query.variables}"
        )
    return order


@dataclass(frozen=True, eq=False)
class LevelLayout:
    """Where a WCOJ plan's variable order changes hands, decided once.

    Theorem 5.1 / Algorithm 3 walks one order a level at a time; the FAQ
    and any-k extensions change only what happens below a prefix of it.
    The recursion, the columnar descent, the pricer and ``explain()``
    read that prefix here: ``stop`` is the depth where enumeration stops
    and the tail is eliminated or checked for a witness (``len(order)``
    for a full or seen-set enumeration); ``seen_set`` whether a seen-set
    deduplicates the head (a guarded order binds an unpinned non-head
    variable before the last head variable); ``key_depth`` the depth
    after any-k's last ORDER BY key (0 without keys); ``fires_at`` per
    selection the shallowest depth binding all its variables.
    """

    query: ConjunctiveQuery
    order: tuple[str, ...]
    selections: tuple
    stop: int
    seen_set: bool
    key_depth: int
    fires_at: tuple[int, ...]

    def components(self, depth: int) -> tuple[tuple[int, ...], ...]:
        """The tail's residual components below ``depth`` as sorted order
        positions: :meth:`repro.query.hypergraph.Hypergraph.
        residual_components` of the bound prefix, the selections as
        couplings (a selection's truth couples the variables it reads)."""
        position = {v: i for i, v in enumerate(self.order)}
        groups = self.query.hypergraph().residual_components(
            self.order[:depth],
            couplings=[sel.variables for sel in self.selections])
        return tuple(tuple(sorted(position[v] for v in group))
                     for group in groups)

    def separators(self, depths: Sequence[int],
                   start: int) -> list[tuple[str, ...]]:
        """Per position of ``depths`` (ascending order positions below
        ``start``, one eliminated tail), its *separator*: the variables
        bound before it — ``order[:start]``, then the earlier positions
        of ``depths`` — that share an atom with it or a later position.
        An eliminator evaluates a position once per binding of its
        separator; the pricer's scopes and the columnar memo keys are
        both read here."""
        order = self.order
        reach: list[set[str]] = []
        seen: set[str] = set()
        for depth in reversed(depths):
            for atom in self.query.atoms_containing(order[depth]):
                seen |= atom.variable_set
            reach.append(set(seen))
        reach.reverse()
        bound = list(order[:start])
        separators = []
        for depth, needed in zip(depths, reach):
            separators.append(tuple(u for u in bound if u in needed))
            bound.append(order[depth])
        return separators


def level_layout(query: ConjunctiveQuery, order: Sequence[str],
                 selections: Sequence = (),
                 head: Sequence[str] | None = None,
                 aggregate: bool = False,
                 keys: Sequence[str] | None = None) -> LevelLayout:
    """The :class:`LevelLayout` of a WCOJ plan over ``order``.

    ``head`` is the projection (None: every variable), or the group-by
    with ``aggregate``; ``keys`` are any-k's ORDER BY variables.  Raises
    ``ValueError`` for a selection, head, group or key outside the query
    variables.  Raises :class:`~repro.errors.QueryError` where the plan's
    contract fails: a key that is not a head variable, keys combined
    with an aggregate, and an order that interleaves an unpinned
    variable into the prefix the plan needs (a plain projection falls
    back to a seen-set instead).
    """
    order = tuple(order)
    selections = tuple(selections)
    position = {v: i for i, v in enumerate(order)}
    fires_at = []
    for sel in selections:
        unknown = [v for v in sel.variables if v not in position]
        if unknown:
            raise ValueError(
                f"selection {sel} mentions variables {unknown} "
                f"outside the query variables {query.variables}"
            )
        fires_at.append(max(position[v] for v in sel.variables))
    pinned = pinned_constants(selections)
    stop, seen_set, key_depth = len(order), False, 0
    prefixes = []  # (lo, hi, allowed, role, last variable, what needs it)
    if keys is not None:
        if aggregate:
            raise QueryError(
                "ranked enumeration does not apply to aggregate heads; "
                "ordered aggregate queries drain and sort their group rows"
            )
        if not keys:
            raise ValueError("ranked enumeration needs at least one sort key")
        unknown = [v for v in keys if v not in position]
        if unknown:
            raise ValueError(
                f"ORDER BY variables {unknown} are not query variables")
        head_vars = tuple(head) if head is not None else query.variables
        unknown = [h for h in head_vars if h not in position]
        if unknown:
            raise ValueError(f"head variables {unknown} are not query variables")
        stray = sorted(set(keys) - set(head_vars))
        if stray:
            raise QueryError(
                f"ORDER BY variables {stray} are not head variables; "
                "a row's sort key must be a function of the row"
            )
        key_depth = max(position[v] for v in keys) + 1
        stop = max(key_depth,
                   max((position[h] for h in head_vars), default=0) + 1)
        prefixes = [(0, key_depth, keys, "key", "ORDER BY",
                     "any-k enumeration needs the sort keys as a prefix"),
                    (key_depth, stop, head_vars, "head", "head",
                     "any-k emission needs the head as a prefix")]
    elif aggregate:
        group = tuple(head or ())
        missing = [g for g in group if g not in position]
        if missing:
            raise ValueError(f"group variables {missing} are not query variables")
        stop = max((position[g] for g in group), default=-1) + 1
        prefixes = [(0, stop, group, "group", "group",
                     "in-recursion aggregation needs the group as a prefix")]
    elif head is not None:
        missing = [h for h in head if h not in position]
        if missing:
            raise ValueError(f"head variables {missing} are not query variables")
        prefix = max((position[h] for h in head), default=-1) + 1
        if all(v in head or v in pinned for v in order[:prefix]):
            stop = prefix  # every head tuple is distinct by construction
        else:
            seen_set = True
    for lo, hi, allowed, role, last, needs in prefixes:
        blockers = [v for v in order[lo:hi]
                    if v not in allowed and v not in pinned]
        if blockers:
            raise QueryError(
                f"variable order {order} interleaves unpinned non-{role} "
                f"variables {blockers} before the last {last} variable; "
                f"{needs}"
            )
    return LevelLayout(query, order, selections, stop, seen_set, key_depth,
                       tuple(fires_at))
