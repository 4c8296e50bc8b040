"""Tests for GYO acyclicity and join trees."""

from repro.query.atoms import (
    clique_query,
    cycle_query,
    loomis_whitney_query,
    path_query,
    triangle_query,
)
from repro.query.decomposition import gyo_reduction, is_alpha_acyclic
from repro.query.hypergraph import Hypergraph


class TestAcyclicity:
    def test_triangle_is_cyclic(self):
        assert not is_alpha_acyclic(triangle_query().hypergraph())

    def test_path_is_acyclic(self):
        assert is_alpha_acyclic(path_query(4).hypergraph())

    def test_cycles_are_cyclic(self):
        for k in (4, 5, 6):
            assert not is_alpha_acyclic(cycle_query(k).hypergraph())

    def test_cliques_are_cyclic(self):
        assert not is_alpha_acyclic(clique_query(4).hypergraph())

    def test_loomis_whitney_cyclic(self):
        assert not is_alpha_acyclic(loomis_whitney_query(4).hypergraph())

    def test_single_edge_is_acyclic(self):
        h = Hypergraph(["A", "B"], {"R": ["A", "B"]})
        assert is_alpha_acyclic(h)

    def test_star_query_is_acyclic(self):
        h = Hypergraph(["A", "B", "C", "D"],
                       {"R": ["A", "B"], "S": ["A", "C"], "T": ["A", "D"]})
        assert is_alpha_acyclic(h)

    def test_big_atom_covering_triangle_is_acyclic(self):
        # Adding an atom over all three variables makes the triangle acyclic
        # (the big atom absorbs the small ones).
        h = Hypergraph(["A", "B", "C"],
                       {"R": ["A", "B"], "S": ["B", "C"], "T": ["A", "C"],
                        "U": ["A", "B", "C"]})
        assert is_alpha_acyclic(h)


class TestJoinTree:
    def test_join_tree_of_path(self):
        h = path_query(3).hypergraph()
        tree = gyo_reduction(h).parent
        # Every edge appears and exactly one root (parent None).
        assert set(tree.keys()) == set(h.edge_keys)
        assert sum(1 for parent in tree.values() if parent is None) == 1

    def test_join_tree_parent_shares_variables(self):
        h = path_query(4).hypergraph()
        tree = gyo_reduction(h).parent
        for child, parent in tree.items():
            if parent is None:
                continue
            assert h.edge(child) & h.edge(parent)

    def test_join_tree_rejects_cyclic(self):
        # GYO removes no ear of the triangle: its parent links reach no
        # edge, so they form no join tree.
        h = triangle_query().hypergraph()
        assert not set(h.edge_keys) <= set(gyo_reduction(h).parent)

    def test_gyo_result_fields(self):
        result = gyo_reduction(triangle_query().hypergraph())
        assert not result.acyclic
        assert len(result.remaining_edges) >= 2
