"""Fractional hypertree width: rho* over the bags of a tree decomposition.

Section 1.1 of the paper credits the "new query plans" to variable
elimination / tree decompositions, and PANDA's significance (Section 5.2) is
that it meets refined width parameters (fractional hypertree width and
submodular width) over such decompositions.  The decompositions themselves
are query-model structure (:mod:`repro.query.widths`); their *fractional*
width is an edge-cover LP per bag, one exact simplex solve
(:func:`~repro.covers.edge_cover.cheapest_cover`), so it lives
here, beside that solver:

* the fractional hypertree width of one decomposition — the maximum over
  bags of the fractional edge cover number rho* of the bag;
* the query's fhtw as the minimum over all elimination orders (exact for
  the small, query-sized hypergraphs this library targets, via brute force
  over orders with a min-fill fallback for larger ones), and a
  decomposition achieving it.

For alpha-acyclic queries fhtw = 1; for the triangle it is 3/2 (the single
bag {A,B,C} with the optimal (1/2,1/2,1/2) cover); fhtw never exceeds rho*
(the trivial one-bag decomposition).  The tests pin these well-known values.
No planner reads these numbers: the dispatcher prices orders by the
Theorem 5.1 walk, so the widths stay off the query path.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from repro.covers.edge_cover import cheapest_cover
from repro.errors import QueryError
from repro.query.hypergraph import Hypergraph
from repro.query.widths import (
    TreeDecomposition,
    decomposition_from_elimination_order,
    min_fill_order,
)


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
    return sum(cheapest_cover(sub, [1.0] * len(edges)))


def decomposition_fhtw(decomposition: TreeDecomposition,
                       hypergraph: Hypergraph) -> float:
    """max over the decomposition's bags of rho*(bag) with respect to
    ``hypergraph``'s edges."""
    return max((_bag_rho_star(hypergraph, bag) for bag in decomposition.bags),
               default=0.0)


def best_decomposition(hypergraph: Hypergraph,
                       max_exact_vertices: int = 6) -> TreeDecomposition:
    """A tree decomposition achieving :func:`fractional_hypertree_width`."""
    candidates: Iterable[Sequence[str]]
    if len(hypergraph.vertices) <= max_exact_vertices:
        candidates = itertools.permutations(hypergraph.vertices)
    else:
        candidates = [min_fill_order(hypergraph)]
    best: TreeDecomposition | None = None
    best_width = float("inf")
    for order in candidates:
        decomposition = decomposition_from_elimination_order(hypergraph, order)
        width = decomposition_fhtw(decomposition, hypergraph)
        if width < best_width - 1e-12:
            best_width = width
            best = decomposition
    assert best is not None
    return best


def fractional_hypertree_width(hypergraph: Hypergraph,
                               max_exact_vertices: int = 6) -> float:
    """The fractional hypertree width fhtw(H).

    Exact (brute force over elimination orders) when the hypergraph has at
    most ``max_exact_vertices`` vertices — which covers the query sizes this
    library deals with — and a min-fill greedy upper bound beyond that.
    """
    return decomposition_fhtw(
        best_decomposition(hypergraph, max_exact_vertices), hypergraph)
