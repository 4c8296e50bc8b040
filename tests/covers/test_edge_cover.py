"""Tests for fractional/integral edge covers and rho*."""


import pytest

from repro.covers.edge_cover import (
    fractional_edge_cover,
    fractional_edge_cover_number,
    integral_edge_cover,
    is_fractional_edge_cover,
    weighted_fractional_edge_cover,
)
from repro.errors import LPError
from repro.query.atoms import (
    clique_query,
    cycle_query,
    loomis_whitney_query,
    path_query,
    triangle_query,
)


class TestFractionalEdgeCover:
    def test_triangle_rho_star(self):
        assert fractional_edge_cover_number(triangle_query().hypergraph()) == pytest.approx(1.5)

    def test_triangle_optimal_weights(self):
        cover = fractional_edge_cover(triangle_query().hypergraph())
        assert all(w == pytest.approx(0.5) for w in cover.weights.values())

    def test_even_cycle_rho_star(self):
        assert fractional_edge_cover_number(cycle_query(4).hypergraph()) == pytest.approx(2.0)
        assert fractional_edge_cover_number(cycle_query(6).hypergraph()) == pytest.approx(3.0)

    def test_odd_cycle_rho_star(self):
        assert fractional_edge_cover_number(cycle_query(5).hypergraph()) == pytest.approx(2.5)

    def test_clique_rho_star(self):
        assert fractional_edge_cover_number(clique_query(4).hypergraph()) == pytest.approx(2.0)
        assert fractional_edge_cover_number(clique_query(5).hypergraph()) == pytest.approx(2.5)

    def test_loomis_whitney_rho_star(self):
        for k in (3, 4, 5):
            expected = k / (k - 1)
            assert fractional_edge_cover_number(
                loomis_whitney_query(k).hypergraph()) == pytest.approx(expected)

    def test_path_rho_star(self):
        # A path of k edges over k+1 vertices needs ceil((k+1)/2) edges.
        assert fractional_edge_cover_number(path_query(3).hypergraph()) == pytest.approx(2.0)

    def test_returned_cover_is_valid(self):
        h = clique_query(4).hypergraph()
        cover = fractional_edge_cover(h)
        assert is_fractional_edge_cover(h, cover.weights)


class TestWeightedCover:
    def test_weighted_cover_triangle_balanced(self):
        h = triangle_query().hypergraph()
        costs = {"R": 10.0, "S": 10.0, "T": 10.0}
        cover = weighted_fractional_edge_cover(h, costs)
        assert cover.objective == pytest.approx(15.0)

    def test_weighted_cover_prefers_cheap_edges(self):
        h = triangle_query().hypergraph()
        # T is free: cover A and C with T, B must still be covered by R or S.
        costs = {"R": 5.0, "S": 10.0, "T": 0.0}
        cover = weighted_fractional_edge_cover(h, costs)
        assert cover.objective == pytest.approx(5.0)
        assert cover.weights["T"] >= 1.0 - 1e-6

    def test_missing_cost_rejected(self):
        h = triangle_query().hypergraph()
        with pytest.raises(LPError):
            weighted_fractional_edge_cover(h, {"R": 1.0})

    def test_negative_cost_rejected(self):
        h = triangle_query().hypergraph()
        with pytest.raises(LPError):
            weighted_fractional_edge_cover(h, {"R": 1.0, "S": 1.0, "T": -1.0})


class TestIntegralCover:
    def test_triangle_integral_cover_is_2(self):
        cover = integral_edge_cover(triangle_query().hypergraph())
        assert cover.objective == pytest.approx(2.0)
        assert all(w in (0.0, 1.0) for w in cover.weights.values())

    def test_integral_at_least_fractional(self):
        for query in (triangle_query(), cycle_query(5), clique_query(4),
                      loomis_whitney_query(4)):
            h = query.hypergraph()
            assert integral_edge_cover(h).objective >= (
                fractional_edge_cover_number(h) - 1e-9)

    def test_single_edge(self):
        h = path_query(1).hypergraph()
        assert integral_edge_cover(h).objective == pytest.approx(1.0)
