"""Tests for graph generators."""

from repro.datagen.graphs import (
    erdos_renyi_graph,
    social_graph,
    undirected_closure,
    zipf_graph,
)
from repro.relational.statistics import max_degree


class TestErdosRenyi:
    def test_requested_size(self):
        g = erdos_renyi_graph(50, 200, seed=1)
        assert len(g) == 200
        assert g.attributes == ("A", "B")

    def test_deterministic_for_seed(self):
        assert erdos_renyi_graph(30, 50, seed=7) == erdos_renyi_graph(30, 50, seed=7)
        assert erdos_renyi_graph(30, 50, seed=7) != erdos_renyi_graph(30, 50, seed=8)

    def test_no_self_loops_by_default(self):
        g = erdos_renyi_graph(20, 100, seed=2)
        assert all(a != b for a, b in g)

    def test_caps_at_complete_graph(self):
        g = erdos_renyi_graph(5, 10_000, seed=3)
        assert len(g) == 5 * 4

    def test_vertex_ids_in_range(self):
        g = erdos_renyi_graph(10, 30, seed=4)
        assert all(0 <= a < 10 and 0 <= b < 10 for a, b in g)


class TestZipfAndSocial:
    def test_zipf_skews_degrees(self):
        g = zipf_graph(200, 400, skew=1.5, seed=5)
        # The most popular vertex should have a much higher degree than the
        # average (400/200 = 2 outgoing on average).
        assert max_degree(g, "A") >= 10

    def test_social_graph_size(self):
        g = social_graph(100, average_degree=5, seed=6)
        assert len(g) <= 100 * 5
        assert len(g) > 100

    def test_undirected_closure_symmetric(self):
        g = undirected_closure(erdos_renyi_graph(20, 40, seed=7))
        tuples = set(g.tuples)
        assert all((b, a) in tuples for a, b in tuples)
