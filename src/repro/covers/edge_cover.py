"""Fractional and integral edge covers of query hypergraphs.

The fractional edge cover polytope FECP(H) (Section 3.1) is

    { delta >= 0 : sum_{F : v in F} delta_F >= 1  for every vertex v },

and the fractional edge cover number rho*(H) is the minimum total weight of a
point in FECP(H).  The AGM bound (Corollary 4.2) is the weighted variant in
which edge F costs log |R_F| instead of 1.

:func:`cheapest_cover` solves the cover LP for any non-negative costs
with one exact simplex solve on its dual, the fractional vertex packing,
in ``Fraction`` arithmetic and without scipy; the AGM bound and rho* of
the query path and the fhtw of :mod:`repro.covers.hypertree` use it.  The
scipy LPs below remain the reference it is tested against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from repro.covers.lp import LinearProgram
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


def _uncovered_error(vertex: str) -> LPError:
    return LPError(f"vertex {vertex!r} is not covered by any edge; cover is infeasible")


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
            raise _uncovered_error(vertex)
    return _packing_simplex(len(position), incidence, tuple(costs))


@functools.lru_cache(maxsize=256)
def _packing_simplex(num_vertices: int, incidence: tuple[tuple[int, ...], ...],
                     costs: tuple[float, ...]) -> tuple[float, ...]:
    """Solve the cover LP's dual, max sum_v y_v subject to
    sum_{v in F} y_v <= c_F and y >= 0, and return the optimal cover.

    A dense tableau over Fractions: one row per edge, columns y_v, then
    the slacks s_F, then the right-hand side.  y = 0 is feasible because
    no cost is negative, so the slack basis starts the single phase.
    Bland's rule (lowest improving column; on a ratio tie, the lowest
    basic variable leaves) cannot cycle, and makes the cover a function of
    the arguments alone.  At the optimum the objective row holds the slack
    columns' reduced costs, which are the duals delta_F: a basic, hence
    vertex, optimum of the cover LP.
    """
    n, m = num_vertices, len(incidence)
    rows = [[Fraction(int(v in edge)) for v in range(n)]
            + [Fraction(int(f == g)) for g in range(m)] + [Fraction(cost)]
            for f, (edge, cost) in enumerate(zip(incidence, costs))]
    objective = [Fraction(-1)] * n + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        entering = next((j for j in range(n + m) if objective[j] < 0), None)
        if entering is None:
            return tuple(float(objective[n + f]) for f in range(m))
        # Every vertex is in some edge, so y is bounded and the column
        # of an improving y_v always has a positive entry.
        _ratio, _basic, r = min((row[-1] / row[entering], basis[i], i)
                                for i, row in enumerate(rows)
                                if row[entering] > 0)
        pivot, scale = rows[r], rows[r][entering]
        pivot[:] = [x / scale for x in pivot]
        support = [j for j, x in enumerate(pivot) if x]
        for row in [*rows, objective]:
            factor = row[entering]
            if factor and row is not pivot:
                for j in support:
                    row[j] -= factor * pivot[j]
        basis[r] = entering


def _cover_lp(hypergraph: Hypergraph, costs: Mapping[str, float]) -> EdgeCover:
    lp = LinearProgram("fractional-edge-cover")
    for key in hypergraph.edge_keys:
        lp.add_variable(key, lower=0.0)
    lp.minimize({key: costs[key] for key in hypergraph.edge_keys})
    for vertex in hypergraph.vertices:
        covering = hypergraph.edges_containing(vertex)
        if not covering:
            raise _uncovered_error(vertex)
        lp.add_constraint(f"cover[{vertex}]", {key: 1.0 for key in covering}, ">=", 1.0)
    solution = lp.solve()
    weights = {key: max(0.0, solution.values[key]) for key in hypergraph.edge_keys}
    return EdgeCover(
        weights=weights,
        total_weight=sum(weights.values()),
        objective=solution.objective,
    )


def fractional_edge_cover(hypergraph: Hypergraph) -> EdgeCover:
    """Minimize the total weight sum_F delta_F over FECP(H).

    Returns the optimal cover; its ``objective`` equals rho*(H).
    """
    return _cover_lp(hypergraph, {key: 1.0 for key in hypergraph.edge_keys})


def fractional_edge_cover_number(hypergraph: Hypergraph) -> float:
    """The fractional edge cover number rho*(H)."""
    return fractional_edge_cover(hypergraph).objective


def weighted_fractional_edge_cover(hypergraph: Hypergraph,
                                   costs: Mapping[str, float]) -> EdgeCover:
    """Minimize ``sum_F costs[F] * delta_F`` over FECP(H).

    With ``costs[F] = log |R_F|`` this is exactly the AGM-bound LP (eq. 5 for
    the triangle, Corollary 4.2 in general).  Negative costs are rejected:
    they would make the LP unbounded below only if a vertex could be
    over-covered for free, which never corresponds to a meaningful instance.
    """
    for key in hypergraph.edge_keys:
        if key not in costs:
            raise LPError(f"no cost provided for edge {key!r}")
        if costs[key] < 0:
            raise LPError(f"negative cost for edge {key!r}: {costs[key]}")
    return _cover_lp(hypergraph, costs)


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
