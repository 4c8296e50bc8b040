"""Generic-Join (Ngo–Ré–Rudra 2013), the recursive WCOJ algorithm.

Generic-Join fixes a global variable order and computes the join one
variable at a time: at depth i, the candidate values for variable v_i are
the intersection, over all atoms containing v_i, of the values consistent
with the bindings chosen so far.  The only data-structure requirement is the
paper's assumption from Section 2: the intersection of k sets can be
enumerated in time proportional to the smallest set (times log factors).

With cardinality constraints only, the total work is within the AGM bound
O(N^{rho*}), which the benchmark harness verifies via operation counts.
Algorithm 1 of the paper is exactly this algorithm specialized to the
triangle query with the order (A, B, C).

The shared recursion (:func:`wcoj_stream`) is FAQ-shaped: variables that no
output head needs are *eliminated in-recursion* — each such subtree
collapses to one semiring value per aggregate instead of being enumerated
into output tuples.  The boolean semiring instance of this machinery is the
classical existential tail of a projection (find one witness and stop);
``COUNT``/``SUM``/``MIN``/``MAX``/``AVG`` heads reuse the identical
recursion with their own semirings, and a separator-keyed memo collapses
repeated subproblems so acyclic group-bys run output-linear instead of
join-linear.

The module exposes two entry points sharing one recursion:

* :func:`generic_join_stream` — a generator that lazily yields result
  tuples.  Because the recursion suspends at every ``yield``, abandoning the
  generator abandons the remaining search tree, which is how the query
  engine pushes ``LIMIT`` down into the join itself.
* :func:`generic_join` — the classical batch API returning a
  :class:`Relation`.

Both accept prebuilt :class:`TrieIndex` objects per atom so a long-lived
engine can amortize index construction across queries.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Collection, Iterator, Mapping, Sequence

from repro.joins.anyk import anyk
from repro.joins.instrumentation import OperationCounter
from repro.query.atoms import ConjunctiveQuery
from repro.query.semiring import (
    BOOLEAN,
    RANKING,
    Aggregate,
    rank_component,
    times_fold,
)
from repro.query.terms import pinned_constants
from repro.query.variable_order import (
    level_layout,
    min_degree_order,
    validate_order,
)
from repro.relational.database import Database
from repro.relational.index import TrieIndex, TrieNode
from repro.relational.relation import Relation


def resolve_tries(query: ConjunctiveQuery, database: Database,
                  order: Sequence[str],
                  tries: Mapping[str, TrieIndex] | None = None,
                  ) -> tuple[dict[str, TrieIndex], dict[str, tuple[str, ...]]]:
    """Per-atom tries and per-atom variable orders for a WCOJ run.

    Missing entries of ``tries`` are built from scratch; provided entries
    must have been built level-compatible with the restriction of ``order``
    to the atom's variables (the engine's index registry guarantees this by
    construction).  Only an atom whose trie is built here is checked
    against ``database``: whoever provides a trie has checked its atom.
    """
    trie_map: dict[str, TrieIndex] = {}
    trie_orders: dict[str, tuple[str, ...]] = {}
    for i, atom in enumerate(query.atoms):
        edge_key = query.edge_key(i)
        atom_order = tuple(v for v in order if v in atom.variables)
        trie_orders[edge_key] = atom_order
        provided = tries.get(edge_key) if tries is not None else None
        if provided is None:
            # Only a trie built here needs the relation in the query's
            # variable names.
            relation = atom.relation_in(database)
            provided = TrieIndex(relation.rename(
                dict(zip(relation.attributes, atom.variables)),
                name=edge_key), atom_order)
        trie_map[edge_key] = provided
    return trie_map, trie_orders


#: Lift factorization of the boolean existential lift: it reads no
#: variables, so the bound prefix carries the whole lift and every
#: residual component contributes the boolean ``one`` (True) — a
#: component's fold is then exactly "does this sub-problem have a
#: witness", short-circuited per component by the absorbing element.
_BOOLEAN_FACTORS = ((frozenset(), lambda _subset: (lambda: True)),)


def wcoj_stream(query: ConjunctiveQuery, database: Database,
                intersect: Callable[[Sequence[TrieNode],
                                     OperationCounter | None], list],
                order: Sequence[str] | None = None,
                counter: OperationCounter | None = None,
                tries: Mapping[str, TrieIndex] | None = None,
                selections: Sequence = (),
                head: Sequence[str] | None = None,
                aggregates: Sequence[Aggregate] | None = None,
                ranked: Sequence[tuple[str, bool]] | None = None,
                factorize: bool = True,
                ) -> Iterator[tuple]:
    """The shared variable-at-a-time WCOJ recursion.

    Generic-Join and Leapfrog Triejoin differ *only* in how they enumerate
    the intersection of the per-atom candidate sets (the paper's single
    algorithmic assumption); everything else — trie resolution, the
    relevant-atom map, the suspending recursion, in-recursion semiring
    elimination — is this one generator.  ``intersect(nodes, counter)``
    supplies that primitive: it receives the per-atom trie nodes the
    stream's cursors sit on and returns the sorted intersection of their
    next-level values.

    Selections (:class:`~repro.query.terms.Comparison` predicates over the
    query variables) are pushed into the recursion at the *binding* level:
    each predicate fires at the shallowest depth where all its variables
    are bound, pruning the candidate loop there instead of filtering
    finished tuples — constants and comparisons therefore cut the search
    tree below the join, not after it.

    **Projection.**  With ``head`` (a subset/permutation of the variables)
    the stream yields *deduplicated head tuples*.  When every non-head
    variable preceding the last head variable in ``order`` is pinned by a
    ``== constant`` selection, the tail variables after the head prefix
    are existential and collapse through the boolean-semiring eliminator:
    one witness saturates the fold (``absorbing``), the rest of the
    subtree is abandoned, and a separator-keyed memo reuses witnesses
    across head prefixes that agree on the variables the tail can actually
    see.  Otherwise every full binding is enumerated and a seen-set keeps
    each head tuple's first occurrence: the plan for a *guarded* order,
    which binds an existential variable before a head variable because
    it guards it — the dispatcher runs it when it prices cheaper than the
    head-first order's unguarded levels.

    **Aggregation.**  With ``aggregates``, ``head`` is the group-by prefix
    and the stream yields finalized aggregate rows ``group values +
    aggregate values`` directly out of the recursion (FAQ-style variable
    elimination): every variable after the group prefix is folded into the
    aggregates' semirings bottom-up, with the same separator memo, so the
    full join is never enumerated.  ``order`` must keep the group
    variables (plus constant-pinned variables) as a prefix — the
    aggregate-aware planner (:func:`repro.query.variable_order.
    aggregate_elimination_order`) constructs such orders.  A group-free
    aggregation over an empty join yields the single all-identities row
    (SQL-style ``COUNT() = 0``).

    **Component factorization.**  With ``factorize`` (the default), the
    eliminators additionally split the residual tail into the connected
    components of the residual hypergraph conditioned on the bound
    prefix (plus any tail selections gluing components together), fold
    each component independently with its own, smaller separator memo,
    and combine the per-component values with the semiring product —
    the exact FAQ bound ``N^{max component width}`` instead of the
    monolithic ``N^{tail width}`` on star/tree/product-shaped tails.
    Results are identical either way (the distributive law is what
    licenses the split); ``factorize=False`` keeps the monolithic fold
    for ablation, and lifts over semirings without a product fall back
    to it automatically.

    **Ranked enumeration.**  With ``ranked`` (ORDER BY keys as
    ``(variable, descending)`` pairs, each variable in ``head``), the
    stream yields head tuples in exact sort order *without materializing
    the join* — any-k ranked enumeration hosted in the same elimination
    machinery.  The ranking-semiring eliminators
    (:func:`repro.query.semiring.ranking_semiring`) compute, per
    separator and bottom-up, the lexicographically best sort-key suffix
    any completion of a prefix binding can achieve.  The key levels are
    the stages of the shared any-k frontier (:func:`repro.joins.anyk.
    anyk`): a candidate's priority is its ``bound key components +
    best-suffix bound`` — an exact bound, so pops occur in final-key
    order — each expansion of a level charges one search node, and a
    popped key class walks the head levels below it and is emitted in
    the drain tie-break order (ascending full row).  ``order`` must keep
    the key variables as a prefix (after pinned variables, before the
    remaining head variables); the ranked planner (:func:`repro.query.
    variable_order.ranked_order`) constructs such orders.  At a level
    binding sort key p below keys 0..p-1 — every frontier level of a
    planner order, a pinned one holding a single candidate — the
    siblings are already in priority order, so they enter the frontier
    one at a time: a level's first surviving candidate when its parent
    is popped, and a popped entry's next sibling as its successor.  The
    first row then costs the pops down the key levels and the
    eliminators below the candidates they examine, whatever k is;
    abandoning the iterator after k results abandons the frontier, so
    ``ORDER BY ... LIMIT k`` pays for the pops it makes instead of the
    full join.  A hand-given order that binds a later key first pushes
    every candidate of that level at once.

    Yields tuples over ``query.variables`` (or ``head`` / the aggregate
    row shape); because the recursion suspends at every ``yield``,
    abandoning the iterator abandons the remaining search tree (``LIMIT``
    pushdown).
    """
    if order is None:
        order = min_degree_order(query)
    else:
        order = validate_order(query, order)

    trie_map, trie_orders = resolve_tries(query, database, order, tries)

    # One cursor per atom: slot d holds the TrieNode reached by the atom's
    # first d bound variables (slot 0 is the root).  ``levels`` lists, per
    # variable, the (cursor, depth, parent variable) of every atom whose
    # candidate set constrains it.  Cursors belong to this stream — the
    # tries are shared with every other stream reading the registry.
    levels: dict[str, list[tuple[list, int, str | None]]] = {
        v: [] for v in order}
    for edge_key, atom_order in trie_orders.items():
        cursor = [trie_map[edge_key].root] * len(atom_order)
        for depth, v in enumerate(atom_order):
            levels[v].append(
                (cursor, depth, atom_order[depth - 1] if depth else None))

    binding: dict[str, Any] = {}

    # Per-variable search-node attribution (EXPLAIN ANALYZE / metrics):
    # opt-in via the counter's ``detail`` flag, with the labels prebuilt
    # so the hot recursion pays one dict lookup per node, not a format.
    detail = counter is not None and counter.detail
    node_labels = ({v: f"search_nodes[{v}]" for v in order} if detail
                   else {})

    # Where enumeration hands over to elimination, and where each
    # selection prunes the candidate loop: decided by the layout.
    layout = level_layout(
        query, order, selections, head, aggregate=aggregates is not None,
        keys=None if ranked is None else [v for v, _d in ranked])
    n, stop = len(order), layout.stop
    checks_at: list[list] = [[] for _ in order]
    for sel, depth in zip(selections, layout.fires_at):
        checks_at[depth].append(sel)

    pinned = pinned_constants(selections)

    def nodes_at(variable: str) -> list[TrieNode]:
        """Seat every relevant atom's cursor on ``variable``'s level: one
        ``children`` lookup from the slot its parent level seated.  The
        parent's value came out of an intersection this atom took part
        in, so the child is always there."""
        nodes = []
        for cursor, depth, parent in levels[variable]:
            if depth:
                cursor[depth] = cursor[depth - 1].children[binding[parent]]
            nodes.append(cursor[depth])
        return nodes

    def candidates_for(variable: str) -> list[Any]:
        return intersect(nodes_at(variable), counter)

    if pinned:
        # A constant is a singleton relation: its level is one seek per
        # trie, not an intersection filtered afterwards.  Decided here,
        # once, so a query that pins nothing runs the closure above.
        enumerate_level = candidates_for

        def candidates_for(variable: str) -> list[Any]:
            if variable not in pinned:
                return enumerate_level(variable)
            target = pinned[variable]
            nodes = nodes_at(variable)
            if counter is not None:
                counter.charge(seeks=len(nodes))
            stored: list[Any] = []
            for node in nodes:
                try:
                    found = node.seek(target)
                except TypeError:  # constant unorderable against the column
                    return []
                if found is None or found != target:
                    return []
                stored.append(found)
            return stored[:1]  # the stored value, never the query literal

    def passes(depth: int) -> bool:
        for sel in checks_at[depth]:
            if not sel.evaluate(binding):
                return False
        return True

    def make_eliminator(start: int, semirings: Sequence,
                        lifts: Sequence[Callable[[], Any]],
                        lift_needs: Collection[str] | None = None,
                        lift_factors: Sequence[tuple] | None = None):
        """A bottom-up semiring fold over the variables ``order[start:]``.

        ``eliminate(depth)`` returns one accumulator per semiring — the
        fold, over every assignment of ``order[depth:]`` consistent with
        the current prefix binding, of the per-assignment lifts — or
        ``None`` when no consistent assignment exists (so callers can
        distinguish an empty subtree from one that folds to the zeros).

        Three things make this cheaper than enumerating the subtree into
        tuples:

        * *saturation*: when every semiring has an absorbing ``plus``
          element, the candidate loop stops as soon as all accumulators
          reach it (the boolean semiring's one-witness existential
          search);
        * *memoization*: the subtree's value can only depend on the
          earlier-bound variables that the subtree can see — those
          sharing an atom with a subtree variable, those read by a
          selection firing inside the subtree, and the prefix-bound
          variables the lifts read (``lift_needs``: the aggregate input
          variables by default, the sort-key variables for the ranked
          eliminators).  Depths where that separator is strictly smaller
          than the full prefix carry a memo keyed on it, which is what
          collapses acyclic group-bys from join-linear to output-linear;
        * *component factorization* (the exact-FAQ-bound refinement):
          once the prefix is bound, the residual hypergraph on the tail
          variables may fall apart into connected components —
          conditionally-independent sub-problems that share no atom and
          no selection.  When every semiring carries a product and the
          lifts declare how they factor (``lift_factors``), each
          component is folded *independently* (its own memo, keyed on
          the typically much smaller per-component separator) and the
          per-component values combine with the semiring ``times``
          (:func:`repro.query.semiring.times_fold`).  A monolithic fold
          would instead thread a value-carrying variable of one
          component through the separators of all the others, paying a
          product ``N^{tail width}`` where the factorized fold pays
          ``N^{max component width}``.

        ``lift_factors`` holds one ``(reads, partial)`` pair per lift:
        ``reads`` is the set of variables the lift's value depends on and
        ``partial(subset)`` (for ``subset`` a subset of ``reads`` inside
        the tail) returns a component-local lift such that the
        ``times``-product of ``partial`` factors over a partition of the
        tail reads, times the full lift when no read is in the tail,
        equals the original lift.  Omitting it (or any semiring lacking
        ``times``) disables factorization and keeps the monolithic fold.

        The combine step deliberately short-circuits only on an *empty*
        component (``None`` — the semiring zero annihilates a product);
        a ``plus``-absorbing value such as the boolean ``True`` is **not**
        a license to skip the remaining components, whose sub-problems
        may still be empty.
        """
        # Variables co-occurring (in some atom) with each variable.
        covars: dict[str, set[str]] = {v: set() for v in order}
        for atom_order in trie_orders.values():
            for v in atom_order:
                covars[v].update(atom_order)
        if lift_needs is None:
            lift_needs = {
                agg.var for agg in (aggregates or ()) if agg.var is not None
            }
        can_saturate = all(sr.has_absorbing for sr in semirings)
        saturated = [sr.absorbing for sr in semirings] if can_saturate else None
        can_factor = (factorize and lift_factors is not None
                      and len(lift_factors) == len(lifts)
                      and all(sr.has_product for sr in semirings))

        def make_fold(positions: tuple[int, ...],
                      fold_lifts: Sequence[Callable[[], Any]],
                      seed_needs: Collection[str]):
            """A memoized ⊕-fold over the order positions ``positions``.

            The monolithic fold uses all of ``order[start:]``; component
            folds use one component's positions.  Either way the fold at
            index ``j`` may only depend on the bound variables the
            remaining sub-positions can see, so depths with a proper
            separator carry a memo keyed on it.
            """
            k = len(positions)
            needed: list[set[str]] = [set()] * k
            acc = set(seed_needs)
            for j in range(k - 1, -1, -1):
                d = positions[j]
                acc = set(acc)
                acc.update(covars[order[d]])
                for sel in checks_at[d]:
                    acc.update(sel.variables)
                needed[j] = acc
            base = positions[0] if positions else n
            memo_keys: dict[int, tuple[str, ...]] = {}
            memo: dict[int, dict[tuple, list | None]] = {}
            for j in range(k):
                bound_before = (order[:base]
                                + tuple(order[p] for p in positions[:j]))
                key = tuple(u for u in bound_before if u in needed[j])
                if len(key) < len(bound_before):  # a proper separator
                    memo_keys[j] = key
                    memo[j] = {}

            # fold and walk recurse through an argument: a closure naming
            # itself is a reference cycle, and a
            # finished stream would keep its memo tables until a full GC.
            def fold(j: int, fold: Callable) -> list | None:
                if j == k:
                    return [lift() for lift in fold_lifts]
                table = memo.get(j)
                if table is not None:
                    mkey = tuple(binding[u] for u in memo_keys[j])
                    try:
                        return table[mkey]
                    except KeyError:
                        pass
                depth = positions[j]
                variable = order[depth]
                if counter is not None:
                    counter.charge(search_nodes=1)
                    if detail:
                        counter.attribute(node_labels[variable])
                total: list | None = None
                for value in candidates_for(variable):
                    binding[variable] = value
                    sub = fold(j + 1, fold) if passes(depth) else None
                    del binding[variable]
                    if sub is None:
                        continue
                    if total is None:
                        total = list(sub)
                    else:
                        for i, sr in enumerate(semirings):
                            total[i] = sr.plus(total[i], sub[i])
                    if saturated is not None and total == saturated:
                        break
                if table is not None:
                    table[mkey] = total
                return total

            return functools.partial(fold, fold=fold)

        # Per-invocation-depth factorization structure, built lazily and
        # cached: callers re-enter the eliminator at a handful of depths
        # (its start; the emit depth for ranked tie classes) and the
        # per-component memo tables must persist across separator
        # bindings — that reuse is the point.
        structures: dict[int, tuple | None] = {}
        mono_fold = None

        def structure(depth: int) -> tuple | None:
            try:
                return structures[depth]
            except KeyError:
                pass
            result = None
            components = layout.components(depth) if can_factor else ()
            if len(components) > 1:
                tail_vars = frozenset(order[p] for p in range(depth, n))
                prefix_parts: list = []
                tail_partials: list = []
                for (reads, partial), lift, sr in zip(lift_factors, lifts,
                                                      semirings):
                    tail_reads = frozenset(reads) & tail_vars
                    if not tail_reads:
                        # The lift's value is fully determined by the
                        # bound prefix: it becomes the prefix factor and
                        # every component contributes the identity.
                        prefix_parts.append(lift)
                        tail_partials.append(None)
                    elif frozenset(reads) <= tail_vars:
                        prefix_parts.append(lambda _one=sr.one: _one)
                        tail_partials.append(partial)
                    else:  # reads spanning prefix and tail: don't factor
                        components = None
                        break
                if components is not None:
                    comp_folds = []
                    for comp_positions in components:
                        comp_vars = frozenset(order[p]
                                              for p in comp_positions)
                        comp_lifts = []
                        seed: set[str] = set()
                        for (reads, _partial), partial, sr in zip(
                                lift_factors, tail_partials, semirings):
                            if partial is None:
                                comp_lifts.append(lambda _one=sr.one: _one)
                            else:
                                local = frozenset(reads) & comp_vars
                                seed |= local
                                comp_lifts.append(partial(local))
                        comp_folds.append(
                            make_fold(comp_positions, comp_lifts, seed))
                    result = (comp_folds, prefix_parts)
            structures[depth] = result
            return result

        def eliminate(depth: int) -> list | None:
            nonlocal mono_fold
            if depth >= n:
                return [lift() for lift in lifts]
            struct = structure(depth)
            if struct is None:
                if mono_fold is None:
                    mono_fold = make_fold(tuple(range(start, n)), lifts,
                                          lift_needs)
                return mono_fold(depth - start)
            comp_folds, prefix_parts = struct
            values = []
            for fold in comp_folds:
                sub = fold(0)
                if sub is None:
                    return None  # an empty component empties the product
                values.append(sub)
            return [
                times_fold(sr, [prefix_parts[i]()]
                           + [value[i] for value in values])
                for i, sr in enumerate(semirings)
            ]

        return eliminate

    def walk(depth: int, stop: int, leaf: Callable[[], tuple | None],
             walk: Callable) -> Iterator[tuple]:
        """The level loop: enumerate ``order[depth:stop]`` under the
        current binding and hand every complete prefix to ``leaf``, which
        returns its row or None (no row) — called in place, so no
        generator is created per emitted row."""
        if depth == stop:
            row = leaf()
            if row is not None:
                yield row
            return
        variable = order[depth]
        if counter is not None:
            counter.charge(search_nodes=1)
            if detail:
                counter.attribute(node_labels[variable])
        below = depth + 1
        for value in candidates_for(variable):
            binding[variable] = value
            if passes(depth):
                if below == stop:
                    row = leaf()
                    if row is not None:
                        yield row
                else:
                    yield from walk(below, stop, leaf, walk)
            del binding[variable]

    def exists_below(depth: int):
        """The boolean existential eliminator of ``order[depth:]``."""
        return make_eliminator(depth, (BOOLEAN,),
                               (lambda: BOOLEAN.lift(None),),
                               lift_factors=_BOOLEAN_FACTORS)

    # ------------------------------------------------------------------
    # Any-k ranked enumeration: the key levels are the stages of the
    # shared frontier (:func:`repro.joins.anyk.anyk`), priced by exact
    # best-suffix bounds from the ranking semiring.
    # ------------------------------------------------------------------
    if ranked is not None:
        keys = [(v, bool(descending)) for v, descending in ranked]
        head_vars = tuple(head) if head is not None else query.variables
        position = {v: i for i, v in enumerate(order)}
        key_depth = layout.key_depth

        # One ranking-semiring eliminator per frontier depth: the depth-d
        # eliminator folds the subtree below a d-prefix binding into the
        # lexicographically best completion of the *still-unbound* key
        # components (memoized per separator — the bottom-up DP).  Depths
        # with every key bound fall through to the boolean existential
        # eliminator, whose absorbing element keeps subtree checks at
        # one-witness cost.
        rank_eliminators: dict[int, Callable[[int], list | None]] = {}
        for start in range(1, key_depth):
            suffix = tuple((p, v, descending)
                           for p, (v, descending) in enumerate(keys)
                           if position[v] >= start)
            if not suffix:
                continue

            def suffix_partial(subset, _suffix=suffix):
                # The sort-key sub-vector over ``subset``: the whole
                # suffix is the eliminator's lift, and a residual
                # component sees its own block.  Vectors over disjoint
                # key positions recompose with the ranking semiring's ⊗
                # (positionwise merge), so the combined best-suffix
                # bound stays exact — the lexicographic minimum of
                # independent blocks is the merge of the blocks' minima.
                chosen = tuple(entry for entry in _suffix
                               if entry[1] in subset)

                def partial_lift(_chosen=chosen):
                    return tuple((p, rank_component(binding[v], descending))
                                 for p, v, descending in _chosen)

                return partial_lift

            reads = frozenset(v for _p, v, _d in suffix)
            rank_eliminators[start] = make_eliminator(
                start, (RANKING,), (suffix_partial(reads),),
                lift_needs=reads, lift_factors=((reads, suffix_partial),))
        exists = exists_below(key_depth) if key_depth < n else None

        def priority(depth: int, _base: tuple | None,
                     value: Any) -> tuple | None:
            """Bind ``value`` at ``depth``: the exact best full sort key
            reachable under the extended binding (None: the level's
            selections reject it, or its subtree is empty)."""
            binding[order[depth]] = value
            if not passes(depth):
                return None
            depth += 1
            components: list = [None] * len(keys)
            for p, (v, descending) in enumerate(keys):
                if position[v] < depth:
                    components[p] = rank_component(binding[v], descending)
            eliminator = rank_eliminators.get(depth)
            if eliminator is not None:
                best_suffix = eliminator(depth)
                if best_suffix is None:
                    return None
                for p, component in best_suffix[0]:
                    components[p] = component
            elif exists is not None and exists(depth) is None:
                return None
            return tuple(components)

        # A frontier level whose variable is sort key p, with keys
        # 0..p-1 bound above it, has its siblings in priority order
        # already: they share every earlier key component and differ
        # first at component p, so the intersection's sorted candidates
        # are the priority order (reversed for a DESC key).  A pinned
        # level has at most one candidate.  Such a level pushes one
        # sibling at a time; a hand-given order that binds a later key
        # first pushes every candidate of the level at once.
        steps = [1 if v in pinned else None for v in order[:key_depth]]
        for p, (v, descending) in enumerate(keys):
            if all(position[u] < position[v] for u, _d in keys[:p]):
                steps[position[v]] = -1 if descending else 1

        def expand(depth: int, prefix: tuple) -> list[Any]:
            # A successor push may have rebound the prefix's last level.
            binding.update(zip(order, prefix))
            variable = order[depth]
            if counter is not None:
                counter.charge(search_nodes=1)
                if detail:
                    counter.attribute(node_labels[variable])
            return candidates_for(variable)

        def restore(prefix: tuple) -> None:
            binding.clear()
            binding.update(zip(order, prefix))
            # The one binding that does not come from the level above:
            # re-seat the cursors along the restored prefix.
            for variable in order[:len(prefix)]:
                nodes_at(variable)

        def class_row() -> tuple | None:
            """One head row of a popped key class, its tail collapsed."""
            if stop < n and exists(stop) is None:
                return None
            return tuple(binding[h] for h in head_vars)

        def complete(prefix: tuple) -> Iterator[tuple]:
            binding.update(zip(order, prefix))
            return walk(key_depth, stop, class_row, walk)

        yield from anyk(key_depth, expand, priority, steps, restore,
                        complete, counter)
        return

    # ------------------------------------------------------------------
    # Aggregate mode: head = group-by prefix, tail folded in-recursion.
    # ------------------------------------------------------------------
    if aggregates is not None:
        group = tuple(head or ())
        semirings = [agg.semiring() for agg in aggregates]
        lifts = [
            (lambda sr=sr: sr.lift(None)) if agg.var is None
            else (lambda v=agg.var, sr=sr: sr.lift(binding[v]))
            for agg, sr in zip(aggregates, semirings)
        ]
        # How each aggregate lift factorizes across residual components:
        # the component holding the aggregated variable carries the lift,
        # every other component contributes the semiring ``one`` (their
        # folds then count multiplicity, which ``times`` distributes over
        # the value-carrying factor).  Variable-free lifts (COUNT) stay
        # with the prefix factor.
        lift_factors = [
            (frozenset() if agg.var is None else frozenset({agg.var}),
             (lambda subset, lift=lift, sr=sr:
              lift if subset else (lambda _one=sr.one: _one)))
            for agg, sr, lift in zip(aggregates, semirings, lifts)
        ]
        eliminate = make_eliminator(stop, semirings, lifts,
                                    lift_factors=lift_factors)

        def group_row() -> tuple | None:
            values = eliminate(stop)
            if values is None:
                return None
            if counter is not None:
                counter.charge(tuples_emitted=1)
            return (tuple(binding[g] for g in group)
                    + tuple(sr.finish(v) for sr, v in zip(semirings, values)))

        produced = False
        for row in walk(0, stop, group_row, walk):
            produced = True
            yield row
        if not produced and not group:
            # SQL-style group-free aggregate of an empty join.
            if counter is not None:
                counter.charge(tuples_emitted=1)
            yield tuple(sr.finish(sr.zero) for sr in semirings)
        return

    # ------------------------------------------------------------------
    # Projection / full-enumeration mode: below ``stop`` an early-distinct
    # projection's tail is existential (one witness per head tuple); a
    # guarded order enumerates every full binding behind a seen-set.
    # ------------------------------------------------------------------
    emitted = query.variables if head is None else tuple(head)

    def row() -> tuple:
        if counter is not None:
            counter.charge(tuples_emitted=1)
        return tuple(binding[v] for v in emitted)

    if stop < n:
        exists = exists_below(stop)

        def leaf() -> tuple | None:
            return row() if exists(stop) is not None else None
    elif layout.seen_set:
        seen: set[tuple] = set()

        def leaf() -> tuple | None:
            projected = row()
            if projected in seen:
                return None
            seen.add(projected)
            return projected
    else:
        leaf = row

    yield from walk(0, stop, leaf, walk)


def hash_probe_intersect(nodes: Sequence[TrieNode],
                         counter: OperationCounter | None = None) -> list:
    """Intersect the next-level values of trie nodes with hash probes.

    This is Generic-Join's realization of the O(min size) intersection
    assumption: iterate the smallest node's ``sorted_keys`` and probe the
    other nodes' ``children`` maps — nothing is built, sorted or copied,
    so the work is the ``len(smallest)`` steps charged.  The result is
    sorted and must not be mutated (it may be a node's own key list).
    """
    if not nodes:
        return []
    smallest = nodes[0]
    for node in nodes:
        if len(node.sorted_keys) < len(smallest.sorted_keys):
            smallest = node
    keys = smallest.sorted_keys
    if counter is not None:
        counter.charge(intersection_steps=len(keys))
    for node in nodes:
        if node is not smallest:
            probe = node.children
            keys = [v for v in keys if v in probe]
    return keys


def generic_join_stream(query: ConjunctiveQuery, database: Database,
                        order: Sequence[str] | None = None,
                        counter: OperationCounter | None = None,
                        tries: Mapping[str, TrieIndex] | None = None,
                        selections: Sequence = (),
                        head: Sequence[str] | None = None,
                        aggregates: Sequence[Aggregate] | None = None,
                        ranked: Sequence[tuple[str, bool]] | None = None,
                        factorize: bool = True,
                        ) -> Iterator[tuple]:
    """Lazily enumerate the full join, yielding tuples over ``query.variables``.

    Parameters
    ----------
    query:
        The conjunctive query.
    database:
        Relations for every atom.
    order:
        Optional global variable order; defaults to the min-degree heuristic.
        Any order yields a worst-case optimal run for cardinality
        constraints.
    counter:
        Optional operation counter; intersection steps, emitted tuples and
        search nodes are charged to it.  With ``counter.detail`` set,
        search nodes are additionally attributed per join variable into
        ``counter.breakdown`` (``search_nodes[A]``, ...).
    tries:
        Optional prebuilt tries keyed by edge key (see :func:`resolve_tries`).
    selections:
        Comparison predicates pushed into the recursion at the binding
        level (see :func:`wcoj_stream`).
    head:
        Optional projection; with it the stream yields deduplicated head
        tuples (collapsing the existential tail through the boolean
        semiring when the order allows).  With ``aggregates`` it is the
        group-by prefix instead.
    aggregates:
        Optional semiring aggregates evaluated *in-recursion* (FAQ-style
        variable elimination); the stream then yields finalized rows
        ``head values + aggregate values`` (see :func:`wcoj_stream`).
    ranked:
        Optional ORDER BY keys as ``(variable, descending)`` pairs; the
        stream then yields head tuples in exact sort order via any-k
        ranked enumeration (see :func:`wcoj_stream`), so abandoning it
        after k tuples never pays for the full join.
    factorize:
        Whether eliminators split the residual tail into connected
        components and combine the per-component folds with the semiring
        product (see :func:`wcoj_stream`); results are identical either
        way, so False exists for ablation and benchmarking only.
    """
    return wcoj_stream(query, database, hash_probe_intersect,
                       order=order, counter=counter, tries=tries,
                       selections=selections, head=head,
                       aggregates=aggregates, ranked=ranked,
                       factorize=factorize)


def generic_join(query: ConjunctiveQuery, database: Database,
                 order: Sequence[str] | None = None,
                 counter: OperationCounter | None = None,
                 tries: Mapping[str, TrieIndex] | None = None) -> Relation:
    """Evaluate a full conjunctive query with Generic-Join.

    Parameters are those of :func:`generic_join_stream`; the stream is
    materialized into a :class:`Relation` over the query's head variables.
    """
    results = generic_join_stream(query, database, order=order,
                                  counter=counter, tries=tries)
    output = Relation(query.name, query.variables, results)
    if tuple(query.head) != tuple(query.variables):
        output = output.project(query.head, name=query.name)
    return output
