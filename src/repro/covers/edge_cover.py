"""Fractional and integral edge covers of query hypergraphs.

The fractional edge cover polytope FECP(H) (Section 3.1) is

    { delta >= 0 : sum_{F : v in F} delta_F >= 1  for every vertex v },

and the fractional edge cover number rho*(H) is the minimum total weight of a
point in FECP(H).  The AGM bound (Corollary 4.2) is the weighted variant in
which edge F costs log |R_F| instead of 1.

:func:`cheapest_cover` solves the cover LP for any non-negative costs
with one exact simplex solve on its dual, the fractional vertex packing;
the AGM bound and rho* of the query path, the fhtw of
:mod:`repro.covers.hypertree` and the named-edge covers below all use it.
scipy's ``linprog`` is its oracle in the tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from repro.covers.lp import simplex
from repro.errors import LPError
from repro.query.hypergraph import Hypergraph


@dataclass(frozen=True)
class EdgeCover:
    """A (fractional) edge cover together with its objective value.

    Attributes
    ----------
    weights:
        Edge key -> weight delta_F (non-negative).
    total_weight:
        The unweighted total sum of delta_F.
    objective:
        The value of the objective that was optimized (equals
        ``total_weight`` for the unweighted cover, or the weighted sum for
        :func:`weighted_fractional_edge_cover`).
    """

    weights: dict[str, float]
    total_weight: float
    objective: float


def is_fractional_edge_cover(hypergraph: Hypergraph,
                             weights: Mapping[str, float],
                             tolerance: float = 1e-9) -> bool:
    """True if ``weights`` is a valid fractional edge cover of ``hypergraph``."""
    return hypergraph.is_cover(weights, tolerance=tolerance)


def cheapest_cover(hypergraph: Hypergraph, costs: Sequence[float]
                   ) -> tuple[float, ...]:
    """A minimum-cost point of FECP(H): weights in ``edge_keys`` order.

    ``costs`` are non-negative, one per edge in ``edge_keys`` order.  The
    cover is one exact simplex solve (:func:`_packing_simplex`), cached
    process-wide by incidence pattern (edge positions over vertex
    positions) and costs, so isomorphic queries over other names with the
    same relation sizes share one solve.

    Raises
    ------
    LPError
        If a vertex is in no edge (FECP(H) is empty).
    """
    position = {vertex: i for i, vertex in enumerate(hypergraph.vertices)}
    incidence = tuple(tuple(sorted(position[v] for v in hypergraph.edge(key)))
                      for key in hypergraph.edge_keys)
    covered = {i for members in incidence for i in members}
    for vertex, i in position.items():
        if i not in covered:
            raise LPError(f"vertex {vertex!r} is not covered by any edge; "
                          "cover is infeasible")
    return _packing_simplex(len(position), incidence, tuple(costs))


@functools.lru_cache(maxsize=256)
def _packing_simplex(num_vertices: int, incidence: tuple[tuple[int, ...], ...],
                     costs: tuple[float, ...]) -> tuple[float, ...]:
    """Solve the cover LP's dual, max sum_v y_v subject to
    sum_{v in F} y_v <= c_F and y >= 0, and return the optimal cover.

    One :func:`~repro.covers.lp.simplex` solve: a row per edge and a
    column per vertex.  No cost is negative, so the slack basis starts it;
    every vertex is in some edge, so it is bounded.  The duals of the edge
    rows are the cover weights delta_F: a basic, hence vertex, optimum of
    the cover LP.
    """
    matrix = [dict.fromkeys(edge, 1) for edge in incidence]
    _packing, cover, _optimum = simplex(matrix, costs, [1] * num_vertices)
    return tuple(float(delta) for delta in cover)


def fractional_edge_cover(hypergraph: Hypergraph) -> EdgeCover:
    """Minimize the total weight sum_F delta_F over FECP(H).

    Returns the optimal cover; its ``objective`` equals rho*(H).
    """
    return weighted_fractional_edge_cover(
        hypergraph, {key: 1.0 for key in hypergraph.edge_keys})


def fractional_edge_cover_number(hypergraph: Hypergraph) -> float:
    """The fractional edge cover number rho*(H)."""
    return fractional_edge_cover(hypergraph).objective


def weighted_fractional_edge_cover(hypergraph: Hypergraph,
                                   costs: Mapping[str, float]) -> EdgeCover:
    """Minimize ``sum_F costs[F] * delta_F`` over FECP(H) (:func:`cheapest_cover`).

    With ``costs[F] = log |R_F|`` this is exactly the AGM-bound LP (eq. 5 for
    the triangle, Corollary 4.2 in general).  Negative costs are rejected:
    they would make the LP unbounded below only if a vertex could be
    over-covered for free, which never corresponds to a meaningful instance.
    """
    keys = hypergraph.edge_keys
    for key in keys:
        if key not in costs:
            raise LPError(f"no cost provided for edge {key!r}")
        if costs[key] < 0:
            raise LPError(f"negative cost for edge {key!r}: {costs[key]}")
    weights = dict(zip(keys, cheapest_cover(hypergraph, [costs[k] for k in keys])))
    return EdgeCover(
        weights=weights,
        total_weight=sum(weights.values()),
        objective=sum(weights[key] * costs[key] for key in keys),
    )


def integral_edge_cover(hypergraph: Hypergraph) -> EdgeCover:
    """The minimum *integral* edge cover (each delta_F in {0, 1}).

    Solved by brute force over subsets of edges, which is fine for query-size
    hypergraphs (the paper's integral edge cover number appears only as the
    endpoint of the chain M_n ⊆ ... ⊆ SA_n).
    """
    keys = hypergraph.edge_keys
    vertices = set(hypergraph.vertices)
    best: tuple[int, tuple[str, ...]] | None = None
    for size in range(1, len(keys) + 1):
        for subset in combinations(keys, size):
            covered: set[str] = set()
            for key in subset:
                covered |= hypergraph.edge(key)
            if covered == vertices:
                best = (size, subset)
                break
        if best is not None:
            break
    if best is None:
        raise LPError("hypergraph has an uncoverable vertex")
    size, subset = best
    weights = {key: (1.0 if key in subset else 0.0) for key in keys}
    return EdgeCover(weights=weights, total_weight=float(size), objective=float(size))
