"""The constraint dependency graph G_DC and compatible variable orders.

Definition 3 of the paper: G_DC has the query variables as vertices and, for
every degree constraint (X, Y, N_{Y|X}), all directed edges (x, y) with
x in X and y in Y - X.  The constraint set is *acyclic* when G_DC is a DAG,
and a *compatible* variable order is any topological order of G_DC extended
to all variables.  Cardinality constraints add no edges, so they never affect
acyclicity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.constraints.degree import DegreeConstraintSet
from repro.errors import ConstraintError

if TYPE_CHECKING:
    import networkx as nx


def constraint_dependency_graph(dc: DegreeConstraintSet) -> nx.DiGraph:
    """Build G_DC as a networkx DiGraph over all the query variables."""
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(dc.variables)
    for constraint in dc:
        for x in constraint.x:
            for y in constraint.free_variables:
                graph.add_edge(x, y)
    return graph


def is_acyclic(dc: DegreeConstraintSet) -> bool:
    """True if the constraint dependency graph is a DAG."""
    import networkx as nx

    return nx.is_directed_acyclic_graph(constraint_dependency_graph(dc))


def find_cycle(dc: DegreeConstraintSet) -> list[tuple[str, str]] | None:
    """Return one directed cycle of G_DC as a list of edges, or None."""
    import networkx as nx

    graph = constraint_dependency_graph(dc)
    try:
        return list(nx.find_cycle(graph, orientation="original"))[:]
    except nx.NetworkXNoCycle:
        return None


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
    import networkx as nx

    graph = constraint_dependency_graph(dc)
    if not nx.is_directed_acyclic_graph(graph):
        raise ConstraintError("degree constraints are cyclic; no compatible order exists")
    if prefer is None:
        prefer = dc.variables
    priority = {v: i for i, v in enumerate(prefer)}
    # Kahn's algorithm with a preference-ordered frontier.
    in_degree = {v: graph.in_degree(v) for v in graph.nodes}
    order: list[str] = []
    frontier = sorted(
        [v for v, d in in_degree.items() if d == 0],
        key=lambda v: priority.get(v, len(priority)),
    )
    while frontier:
        v = frontier.pop(0)
        order.append(v)
        for _, w in graph.out_edges(v):
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
