"""Width parameters of query hypergraphs: treewidth-style decompositions and
fractional hypertree width.

Section 1.1 of the paper credits the "new query plans" to variable
elimination / tree decompositions, and PANDA's significance (Section 5.2) is
that it meets refined width parameters (fractional hypertree width and
submodular width) over such decompositions.  This module provides the
decomposition machinery at query scale:

* tree decompositions induced by an elimination order (the standard
  construction: the bag of a variable is itself plus its higher neighbours in
  the fill-in graph);
* the *fractional hypertree width* of a decomposition — the maximum over
  bags of the fractional edge cover number rho* of the bag — and the query's
  fhtw as the minimum over all elimination orders (exact for the small,
  query-sized hypergraphs this library targets, via brute force over orders
  with a cheap greedy fallback for larger ones).

For alpha-acyclic queries fhtw = 1; for the triangle it is 3/2 (the single
bag {A,B,C} with the optimal (1/2,1/2,1/2) cover); fhtw never exceeds rho*
(the trivial one-bag decomposition).  The tests pin these well-known values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.covers.edge_cover import fractional_edge_cover_number
from repro.errors import QueryError
from repro.query.hypergraph import Hypergraph


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree decomposition of a hypergraph.

    Attributes
    ----------
    bags:
        The bags, indexed by position.
    edges:
        Tree edges between bag indexes.
    elimination_order:
        The variable order that induced the decomposition (when applicable).
    """

    bags: tuple[frozenset[str], ...]
    edges: tuple[tuple[int, int], ...]
    elimination_order: tuple[str, ...]

    def width(self) -> int:
        """The classical treewidth-style width: max bag size - 1."""
        return max(len(bag) for bag in self.bags) - 1

    def fractional_hypertree_width(self, hypergraph: Hypergraph) -> float:
        """max over bags of rho*(bag) with respect to ``hypergraph``'s edges."""
        worst = 0.0
        for bag in self.bags:
            worst = max(worst, _bag_rho_star(hypergraph, bag))
        return worst

    def is_valid_for(self, hypergraph: Hypergraph) -> bool:
        """Check the three tree-decomposition properties."""
        vertices = set(hypergraph.vertices)
        covered = set()
        for bag in self.bags:
            covered |= bag
        if covered != vertices:
            return False
        # Every edge inside some bag.
        for edge in hypergraph.edges.values():
            if not any(edge <= bag for bag in self.bags):
                return False
        # Running intersection: bags containing any vertex form a connected
        # subtree.
        tree: dict[int, set[int]] = {i: set() for i in range(len(self.bags))}
        for a, b in self.edges:
            tree[a].add(b)
            tree[b].add(a)
        if not _connected(tree, set(tree)):
            return False
        for vertex in vertices:
            nodes = {i for i, bag in enumerate(self.bags) if vertex in bag}
            if not nodes or not _connected(tree, nodes):
                return False
        return True


def _connected(graph: dict[int, set[int]], nodes: set[int]) -> bool:
    """Whether ``nodes`` induce a connected subgraph of ``graph``."""
    if not nodes:
        return True
    start = next(iter(nodes))
    seen, frontier = {start}, [start]
    while frontier:
        for other in (graph[frontier.pop()] & nodes) - seen:
            seen.add(other)
            frontier.append(other)
    return seen == nodes


def _primal_graph(hypergraph: Hypergraph) -> dict[str, set[str]]:
    """The primal (Gaifman) graph as adjacency sets: two vertices are
    adjacent when some edge contains both."""
    graph: dict[str, set[str]] = {v: set() for v in hypergraph.vertices}
    for edge in hypergraph.edges.values():
        for v in edge:
            graph[v] |= edge - {v}
    return graph


def _eliminate(graph: dict[str, set[str]], variable: str) -> set[str]:
    """Remove ``variable`` from ``graph``, joining its neighbours pairwise
    (the fill-in edges), and return those neighbours."""
    neighbours = graph.pop(variable)
    for v in neighbours:
        graph[v] |= neighbours - {v}
        graph[v].discard(variable)
    return neighbours


def _bag_rho_star(hypergraph: Hypergraph, bag: frozenset[str]) -> float:
    """rho* of a bag: fractional edge cover of the bag's vertices using the
    hypergraph's edges restricted to the bag."""
    edges = {}
    for key, edge in hypergraph.edges.items():
        restricted = edge & bag
        if restricted:
            edges[key] = restricted
    if not edges:
        raise QueryError(f"bag {sorted(bag)} is not touched by any edge")
    sub = Hypergraph(tuple(sorted(bag)), edges)
    return fractional_edge_cover_number(sub)


def decomposition_from_elimination_order(hypergraph: Hypergraph,
                                         order: Sequence[str]) -> TreeDecomposition:
    """The tree decomposition induced by eliminating variables in ``order``.

    The standard construction on the primal (Gaifman) graph: eliminate
    variables one by one, each elimination creating a bag of the variable
    plus its current neighbours and adding fill-in edges among those
    neighbours.  Bags are connected to the first later bag containing all the
    remaining neighbours, which yields the running-intersection property.
    """
    order = tuple(order)
    if sorted(order) != sorted(hypergraph.vertices):
        raise QueryError("elimination order must be a permutation of the vertices")

    working = _primal_graph(hypergraph)
    bags = [frozenset({v} | _eliminate(working, v)) for v in order]

    position = {v: i for i, v in enumerate(order)}
    edges: list[tuple[int, int]] = []
    for i, variable in enumerate(order):
        rest = bags[i] - {variable}
        if rest:
            # Connect to the bag of the earliest-eliminated remaining member.
            edges.append((i, min(position[v] for v in rest)))

    return TreeDecomposition(bags=tuple(bags), edges=tuple(edges),
                             elimination_order=order)


def fractional_hypertree_width(hypergraph: Hypergraph,
                               max_exact_vertices: int = 6) -> float:
    """The fractional hypertree width fhtw(H).

    Exact (brute force over elimination orders) when the hypergraph has at
    most ``max_exact_vertices`` vertices — which covers the query sizes this
    library deals with — and a min-fill greedy upper bound beyond that.
    """
    vertices = hypergraph.vertices
    if len(vertices) <= max_exact_vertices:
        best = float("inf")
        for order in itertools.permutations(vertices):
            decomposition = decomposition_from_elimination_order(hypergraph, order)
            best = min(best, decomposition.fractional_hypertree_width(hypergraph))
        return best
    order = min_fill_order(hypergraph)
    decomposition = decomposition_from_elimination_order(hypergraph, order)
    return decomposition.fractional_hypertree_width(hypergraph)


def min_fill_order(hypergraph: Hypergraph) -> tuple[str, ...]:
    """The classic min-fill elimination-order heuristic on the primal graph."""
    working = _primal_graph(hypergraph)
    order: list[str] = []
    while working:
        choice = min(sorted(working), key=lambda v: sum(
            b not in working[a]
            for a, b in itertools.combinations(working[v], 2)))
        _eliminate(working, choice)
        order.append(choice)
    return tuple(order)


def best_decomposition(hypergraph: Hypergraph,
                       max_exact_vertices: int = 6) -> TreeDecomposition:
    """A tree decomposition achieving :func:`fractional_hypertree_width`."""
    vertices = hypergraph.vertices
    candidates: Iterable[Sequence[str]]
    if len(vertices) <= max_exact_vertices:
        candidates = itertools.permutations(vertices)
    else:
        candidates = [min_fill_order(hypergraph)]
    best: TreeDecomposition | None = None
    best_width = float("inf")
    for order in candidates:
        decomposition = decomposition_from_elimination_order(hypergraph, order)
        width = decomposition.fractional_hypertree_width(hypergraph)
        if width < best_width - 1e-12:
            best_width = width
            best = decomposition
    assert best is not None
    return best
