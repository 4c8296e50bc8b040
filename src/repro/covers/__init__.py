"""Linear programming helpers and (fractional) edge covers."""

from repro.covers.lp import LinearProgram, LPSolution, solve_lp
from repro.covers.edge_cover import (
    cover_vertices,
    fractional_edge_cover,
    fractional_edge_cover_number,
    weighted_fractional_edge_cover,
    integral_edge_cover,
    is_fractional_edge_cover,
)

__all__ = [
    "LinearProgram",
    "LPSolution",
    "solve_lp",
    "cover_vertices",
    "fractional_edge_cover",
    "fractional_edge_cover_number",
    "weighted_fractional_edge_cover",
    "integral_edge_cover",
    "is_fractional_edge_cover",
]
