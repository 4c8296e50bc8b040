"""The constraint dependency graph G_DC and compatible variable orders.

Definition 3 of the paper: G_DC has the query variables as vertices and, for
every degree constraint (X, Y, N_{Y|X}), all directed edges (x, y) with
x in X and y in Y - X.  The constraint set is *acyclic* when G_DC is a DAG,
and a *compatible* variable order is any topological order of G_DC extended
to all variables.  Cardinality constraints add no edges, so they never affect
acyclicity.
"""

from __future__ import annotations

from typing import Sequence

from repro.constraints.degree import DegreeConstraintSet
from repro.errors import ConstraintError

def constraint_dependency_graph(dc: DegreeConstraintSet) -> dict[str, list[str]]:
    """Build G_DC over all the query variables (nodes in ``dc.variables``
    order, successors in the order the constraints add their edges).

    A constraint's X and Y - X are frozensets, whose iteration order
    follows string hashing; each is walked in ``dc.variables`` order, so
    the graph, and every cycle and weakening read off it, is the same in
    every process."""
    graph: dict[str, list[str]] = {v: [] for v in dc.variables}
    for constraint in dc:
        free = [v for v in dc.variables if v in constraint.free_variables]
        for x in (v for v in dc.variables if v in constraint.x):
            for y in free:
                if y not in graph[x]:
                    graph[x].append(y)
    return graph


def _cycle(graph: dict[str, list[str]]) -> list[tuple[str, str]] | None:
    """The first directed cycle a depth-first search meets, as its edges
    (starting at the node the closing edge returns to), or None.

    Roots are tried in node order and successors in adjacency order.
    """
    finished: set[str] = set()
    for root in graph:
        if root in finished:
            continue
        path, successors = [root], [iter(graph[root])]
        while path:
            head = next(successors[-1], None)
            if head is None:
                finished.add(path.pop())
                successors.pop()
            elif head in path:
                cycle = path[path.index(head):] + [head]
                return list(zip(cycle, cycle[1:]))
            elif head not in finished:
                path.append(head)
                successors.append(iter(graph[head]))
    return None


def is_acyclic(dc: DegreeConstraintSet) -> bool:
    """True if the constraint dependency graph is a DAG."""
    return find_cycle(dc) is None


def find_cycle(dc: DegreeConstraintSet) -> list[tuple[str, str]] | None:
    """Return one directed cycle of G_DC as a list of edges, or None."""
    return _cycle(constraint_dependency_graph(dc))


def compatible_variable_order(dc: DegreeConstraintSet,
                              prefer: Sequence[str] | None = None) -> tuple[str, ...]:
    """A variable order compatible with an acyclic DC.

    The order lists all query variables such that for every constraint
    (X, Y, N), every x in X precedes every y in Y - X.  When ``prefer`` is
    given, ties are broken to follow that ordering as closely as possible
    (useful for deterministic output).

    Raises
    ------
    ConstraintError
        If DC is cyclic (no compatible order exists).
    """
    graph = constraint_dependency_graph(dc)
    if _cycle(graph) is not None:
        raise ConstraintError("degree constraints are cyclic; no compatible order exists")
    if prefer is None:
        prefer = dc.variables
    priority = {v: i for i, v in enumerate(prefer)}
    # Kahn's algorithm with a preference-ordered frontier.
    in_degree = dict.fromkeys(graph, 0)
    for successors in graph.values():
        for w in successors:
            in_degree[w] += 1
    order: list[str] = []
    frontier = sorted(
        [v for v, d in in_degree.items() if d == 0],
        key=lambda v: priority.get(v, len(priority)),
    )
    while frontier:
        v = frontier.pop(0)
        order.append(v)
        for w in graph[v]:
            in_degree[w] -= 1
            if in_degree[w] == 0:
                frontier.append(w)
        frontier.sort(key=lambda u: priority.get(u, len(priority)))
    if len(order) != len(dc.variables):
        raise ConstraintError("internal error: topological sort did not cover all variables")
    return tuple(order)


def order_is_compatible(dc: DegreeConstraintSet, order: Sequence[str]) -> bool:
    """Check whether ``order`` is compatible with DC (Definition 3)."""
    position = {v: i for i, v in enumerate(order)}
    if set(position) != set(dc.variables):
        return False
    for constraint in dc:
        for x in constraint.x:
            for y in constraint.free_variables:
                if position[x] > position[y]:
                    return False
    return True
