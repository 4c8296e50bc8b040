"""Tree decompositions of query hypergraphs.

Section 1.1 of the paper credits the "new query plans" to variable
elimination / tree decompositions.  This module provides the decomposition
machinery at query scale: the tree decomposition induced by an elimination
order (the standard construction: the bag of a variable is itself plus its
higher neighbours in the fill-in graph), its classical width, and the
min-fill order heuristic.  The *fractional* hypertree width of a
decomposition solves an edge-cover LP per bag, so it lives above the LPs,
in :mod:`repro.covers.hypertree`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

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
