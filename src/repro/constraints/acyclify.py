"""Boundedness and acyclification of degree constraints (Proposition 5.2).

The worst-case output size sup_{D |= DC} |Q(D)| is finite exactly when every
query variable is *bound*: reachable from cardinality constraints by chasing
degree constraints (Claim 1 in the proof of Proposition 5.2).  When DC is
cyclic, Proposition 5.2 shows one can repeatedly weaken constraints — drop a
variable y from some (X, Y, N) lying on a cycle — without losing boundedness,
until the constraint dependency graph becomes acyclic.  Corollary 5.3 gives
the exact (bound-preserving) version when all non-cardinality constraints are
simple FDs.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Collection

from repro.constraints.degree import DegreeConstraint, DegreeConstraintSet
from repro.constraints.dependency_graph import (
    constraint_dependency_graph,
    find_cycle,
    is_acyclic,
)
from repro.errors import ConstraintError, UnboundedQueryError


def bound_variables(dc: DegreeConstraintSet) -> frozenset[str]:
    """The set of bound variables under DC.

    A variable is bound if it belongs to the Y of some constraint whose X is
    already entirely bound; cardinality constraints (empty X) seed the
    fixpoint.
    """
    bound: set[str] = set()
    changed = True
    while changed:
        changed = False
        for constraint in dc:
            if constraint.x <= bound and not constraint.y <= bound:
                bound |= constraint.y
                changed = True
    return frozenset(bound)


def all_variables_bound(dc: DegreeConstraintSet) -> bool:
    """True when every query variable is bound (finite worst-case output)."""
    return bound_variables(dc) >= set(dc.variables)


def require_bounded(dc: DegreeConstraintSet) -> None:
    """Raise :class:`UnboundedQueryError` when some variable is unbound."""
    unbound = set(dc.variables) - bound_variables(dc)
    if unbound:
        raise UnboundedQueryError(
            f"variables {sorted(unbound)} are not bound by the degree constraints; "
            "the worst-case output size is unbounded"
        )


def acyclify(dc: DegreeConstraintSet) -> DegreeConstraintSet:
    """Weaken a cyclic DC into an acyclic DC' per Proposition 5.2.

    The result satisfies: (i) any database satisfying DC satisfies DC'
    (weakening only shrinks Y sets), and (ii) the worst-case output size
    under DC' remains finite.  The greedy choice follows Claim 2's proof: on
    each cycle of G_DC there is a constraint edge (x, y) whose removal (by
    dropping y from that constraint's Y) keeps every variable bound.

    Raises
    ------
    UnboundedQueryError
        If DC itself leaves some variable unbound.
    ConstraintError
        If no bound-preserving weakening exists on some cycle (cannot happen
        for bounded DC by Proposition 5.2; raised defensively).
    """
    require_bounded(dc)
    current = DegreeConstraintSet(dc.variables, dc.constraints)
    while (cycle := find_cycle(current)) is not None:
        weakened = _weaken_one_on_cycle(current, set(cycle))
        if weakened is None:
            raise ConstraintError(
                "could not find a bound-preserving weakening on a constraint cycle; "
                "this contradicts Proposition 5.2 for bounded DC"
            )
        current = weakened
    return current


def _weaken_one_on_cycle(dc: DegreeConstraintSet,
                         cycle_edges: set[tuple[str, str]]
                         ) -> DegreeConstraintSet | None:
    """Try every (constraint, y) pair on the cycle; return the first
    weakening that keeps all variables bound, or None."""
    for constraint in dc:
        for y in (v for v in dc.variables if v in constraint.free_variables):
            # The constraint must contribute an edge (x, y) on the cycle.
            if not any((x, y) in cycle_edges for x in constraint.x):
                continue
            new_y = constraint.y - {y}
            if new_y == constraint.x:
                candidate = dc.without(constraint)
            else:
                candidate = dc.replace(constraint, constraint.weaken_to(new_y))
            if all_variables_bound(candidate):
                return candidate
    return None


def acyclify_simple_fds(dc: DegreeConstraintSet) -> DegreeConstraintSet:
    """Corollary 5.3: for DC with only cardinality constraints and simple FDs,
    drop FDs to break every cycle without changing the worst-case bound.

    Cycles among simple FDs are equivalence classes (h(i) = h(j) for all
    members), so within each strongly connected component of the FD digraph
    it suffices to keep a spanning path of FDs; FDs between components never
    lie on cycles because the condensation is a DAG.
    """
    if not dc.only_cardinalities_and_simple_fds():
        raise ConstraintError(
            "acyclify_simple_fds applies only to cardinality constraints and simple FDs"
        )
    graph = constraint_dependency_graph(dc)  # the FD digraph: x -> y per FD
    fd_for_edge: dict[tuple[str, str], DegreeConstraint] = {}
    for constraint in dc:
        if constraint.is_cardinality:
            continue
        (x,) = tuple(constraint.x)
        (y,) = tuple(constraint.free_variables)
        fd_for_edge.setdefault((x, y), constraint)

    keep: set[DegreeConstraint] = {c for c in dc if c.is_cardinality}
    reach = {v: {v} | {y for _, y in _dfs_edges(graph, v, graph)} for v in graph}
    components = {frozenset(u for u in reach[v] if v in reach[u]) for v in graph}
    component_of = {}
    for i, comp in enumerate(components):
        for v in comp:
            component_of[v] = i

    # Keep cross-component FDs: they cannot participate in a cycle.
    for (x, y), constraint in fd_for_edge.items():
        if component_of[x] != component_of[y]:
            keep.add(constraint)

    # Within a component, keep a spanning path of existing FD edges; all
    # members are entropy-equal so the dropped FDs do not change the bound.
    for comp in components:
        if len(comp) <= 1:
            continue
        # A DFS tree of the strongly connected subgraph reaches every member.
        root = min(comp)
        for x, y in _dfs_edges(graph, root, comp):
            keep.add(fd_for_edge[(x, y)])
        # Also keep one edge back to the root so every member determines the
        # root (preserving full equivalence of the component in the closure).
        back = next(x for x in graph if x in comp and root in graph[x])
        keep.add(fd_for_edge[(back, root)])

    result = DegreeConstraintSet(dc.variables, [c for c in dc if c in keep])
    if not is_acyclic(result):
        # Keeping both a DFS tree and one return edge can in rare shapes keep a
        # cycle; fall back to the general weakening which preserves soundness.
        return acyclify(result)
    return result


def _dfs_edges(graph: dict[str, list[str]], root: str, within: Collection[str]
               ) -> list[tuple[str, str]]:
    """The tree edges of a depth-first search from ``root`` over the nodes
    ``within``, in visiting order (successors in adjacency order)."""
    seen, edges = {root}, []
    stack = [(root, iter(graph[root]))]
    while stack:
        parent, successors = stack[-1]
        child = next(successors, None)
        if child is None:
            stack.pop()
        elif child not in seen and child in within:
            seen.add(child)
            edges.append((parent, child))
            stack.append((child, iter(graph[child])))
    return edges


def best_acyclic_weakening(dc: DegreeConstraintSet,
                           objective: Callable[[DegreeConstraintSet], float],
                           max_options: int = 200_000) -> DegreeConstraintSet:
    """Exhaustively search bound-preserving weakenings for the acyclic DC'
    minimizing ``objective`` (e.g. the polymatroid/modular bound).

    Every constraint may keep any subset of its free variables (dropping the
    rest), including being dropped entirely; candidates that are cyclic or
    leave a variable unbound are discarded.  The search is exponential in the
    total number of free variables, which is fine at query scale; it refuses
    to run past ``max_options`` candidate combinations.

    Raises
    ------
    UnboundedQueryError
        If DC itself is unbounded.
    ConstraintError
        If the search space exceeds ``max_options``.
    """
    require_bounded(dc)
    option_lists: list[list[DegreeConstraint | None]] = []
    total = 1
    for constraint in dc:
        options: list[DegreeConstraint | None] = []
        free = sorted(constraint.free_variables)
        # Subsets of free variables to *keep* (non-empty keeps a constraint).
        for mask in range(1 << len(free)):
            kept = frozenset(v for i, v in enumerate(free) if mask >> i & 1)
            if not kept:
                options.append(None)
            else:
                options.append(constraint.weaken_to(constraint.x | kept))
        option_lists.append(options)
        total *= len(options)
        if total > max_options:
            raise ConstraintError(
                f"acyclification search space too large ({total} > {max_options})"
            )

    best: tuple[float, DegreeConstraintSet] | None = None
    for combo in product(*option_lists):
        constraints = [c for c in combo if c is not None]
        candidate = DegreeConstraintSet(dc.variables, constraints)
        if not all_variables_bound(candidate):
            continue
        if not is_acyclic(candidate):
            continue
        value = objective(candidate)
        if best is None or value < best[0] - 1e-12:
            best = (value, candidate)
    if best is None:
        raise ConstraintError("no acyclic bound-preserving weakening found")
    return best[1]
