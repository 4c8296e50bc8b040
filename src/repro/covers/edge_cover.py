"""Fractional and integral edge covers of query hypergraphs.

The fractional edge cover polytope FECP(H) (Section 3.1) is

    { delta >= 0 : sum_{F : v in F} delta_F >= 1  for every vertex v },

and the fractional edge cover number rho*(H) is the minimum total weight of a
point in FECP(H).  The AGM bound (Corollary 4.2) is the weighted variant in
which edge F costs log |R_F| instead of 1.

FECP(H) depends only on H, and a linear objective with non-negative costs
attains its minimum over it at a vertex (NPRR).  :func:`cover_vertices`
lists those vertices once per hypergraph shape, in exact integer
arithmetic and without a solver, so a bound for any costs is a minimum
over a table.  The scipy LPs below remain the reference those tables are
tested against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

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


def cover_vertices(hypergraph: Hypergraph) -> tuple[tuple[float, ...], ...]:
    """The vertices of FECP(H), each as weights in ``edge_keys`` order.

    A point is a vertex when its zero weights and the vertices it covers
    exactly pin it down: for its support S some |S| tight vertices T make
    the 0/1 incidence block A[T, S] non-singular, and the weights on S
    are the solution of A[T, S] delta = 1.  Every such (S, T) with a
    positive solution that covers the remaining vertices is one vertex,
    which makes ``sum_k C(|E|, k) C(|V|, k)`` small solves — cheap at
    query size.  The table is ordered by support size, then by the
    position of the support's edges; ties between equally cheap vertices
    are broken by that order.

    Tables are cached process-wide by incidence pattern (edge positions
    over vertex positions), so isomorphic queries over other names share
    one enumeration.

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
    return _vertex_table(len(position), incidence)


@functools.lru_cache(maxsize=256)
def _vertex_table(num_vertices: int, incidence: tuple[tuple[int, ...], ...]
                  ) -> tuple[tuple[float, ...], ...]:
    members = [frozenset(edge) for edge in incidence]
    everything = frozenset(range(num_vertices))
    table: dict[tuple[Fraction, ...], None] = {}
    for k in range(1, min(len(members), num_vertices) + 1):
        for support in combinations(range(len(members)), k):
            if frozenset().union(*(members[j] for j in support)) != everything:
                continue
            rows = [[int(v in members[j]) for j in support]
                    for v in range(num_vertices)]
            for tight in combinations(range(num_vertices), k):
                solved = _solve_ones([rows[v] for v in tight])
                if solved is None:
                    continue
                det, nums = solved
                if min(nums) <= 0:
                    # Negative: infeasible.  Zero: the same vertex has a
                    # smaller support and is found there.
                    continue
                if any(sum(n for n, hit in zip(nums, rows[v]) if hit) < det
                       for v in range(num_vertices)):
                    continue
                weights = dict(zip(support, nums))
                table[tuple(Fraction(weights.get(j, 0), det)
                            for j in range(len(members)))] = None
    return tuple(tuple(float(w) for w in vertex) for vertex in table)


def _solve_ones(block: list[list[int]]) -> tuple[int, list[int]] | None:
    """Solve ``block x = 1`` exactly for a small square 0/1 block.

    Returns ``(d, y)`` with ``d > 0`` and ``x = y / d`` (integers: Bareiss'
    fraction-free elimination keeps every entry a minor), or None when
    the block is singular.
    """
    m = [row + [1] for row in block]
    n, previous = len(m), 1
    for i in range(n):
        if m[i][i] == 0:
            swap = next((r for r in range(i + 1, n) if m[r][i]), None)
            if swap is None:
                return None
            m[i], m[swap] = m[swap], m[i]
        pivot = m[i][i]
        for r in range(i + 1, n):
            for c in range(i + 1, n + 1):
                m[r][c] = (m[r][c] * pivot - m[r][i] * m[i][c]) // previous
        previous = pivot
    # The last pivot d is the (row-permuted) determinant; d * x is integral.
    d = m[n - 1][n - 1]
    y = [0] * n
    for i in range(n - 1, -1, -1):
        rest = sum(m[i][j] * y[j] for j in range(i + 1, n))
        y[i] = (d * m[i][n] - rest) // m[i][i]
    return (d, y) if d > 0 else (-d, [-v for v in y])


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


def fractional_vertex_cover_number(hypergraph: Hypergraph) -> float:
    """The fractional *vertex* cover number tau*(H) (LP dual of fractional
    matching).  Included for completeness of the cover toolbox; not used by
    the bounds themselves."""
    lp = LinearProgram("fractional-vertex-cover")
    for vertex in hypergraph.vertices:
        lp.add_variable(vertex, lower=0.0)
    lp.minimize({vertex: 1.0 for vertex in hypergraph.vertices})
    for key, edge in hypergraph.edges.items():
        lp.add_constraint(f"edge[{key}]", {v: 1.0 for v in edge}, ">=", 1.0)
    return lp.solve().objective
