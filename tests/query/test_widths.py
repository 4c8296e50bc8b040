"""Tests for tree decompositions and fractional hypertree width."""

import itertools

import pytest

from repro.errors import QueryError
from repro.query.hypergraph import Hypergraph
from repro.bounds.agm import rho_star
from repro.query.atoms import (
    clique_query,
    cycle_query,
    path_query,
    triangle_query,
)
from repro.covers.hypertree import (
    best_decomposition,
    decomposition_fhtw,
    fractional_hypertree_width,
)
from repro.query.widths import (
    TreeDecomposition,
    decomposition_from_elimination_order,
    min_fill_order,
)


class TestDecompositionConstruction:
    def test_triangle_single_bag(self):
        h = triangle_query().hypergraph()
        decomposition = decomposition_from_elimination_order(h, ("A", "B", "C"))
        assert decomposition.is_valid_for(h)
        assert max(len(bag) for bag in decomposition.bags) == 3

    def test_path_decomposition_is_width_one(self):
        h = path_query(4).hypergraph()
        decomposition = decomposition_from_elimination_order(h, h.vertices)
        assert decomposition.is_valid_for(h)
        assert decomposition.width() == 1

    def test_invalid_order_rejected(self):
        h = triangle_query().hypergraph()
        with pytest.raises(QueryError):
            decomposition_from_elimination_order(h, ("A", "B"))

    def test_validity_checker_detects_missing_edge_coverage(self):
        h = triangle_query().hypergraph()
        bad = TreeDecomposition(
            bags=(frozenset({"A", "B"}), frozenset({"B", "C"})),
            edges=((0, 1),),
            elimination_order=("A", "B", "C"),
        )
        # Edge T = {A, C} is in no bag.
        assert not bad.is_valid_for(h)

    def test_validity_checker_detects_broken_connectivity(self):
        h = path_query(3).hypergraph()  # X1-X2-X3-X4
        bad = TreeDecomposition(
            bags=(frozenset({"X1", "X2"}), frozenset({"X2", "X3"}),
                  frozenset({"X3", "X4"}), frozenset({"X1", "X4"})),
            edges=((0, 1), (1, 2), (2, 3)),
            elimination_order=h.vertices,
        )
        # X1 appears in bags 0 and 3, which are not adjacent via X1-bags.
        assert not bad.is_valid_for(h)


def _render(decomposition):
    """Bags and tree edges with the ``X`` dropped from vertex names:
    ``("124 234 34 4", "01 12 23")``."""
    bags = " ".join("".join(v[1:] for v in sorted(bag))
                    for bag in decomposition.bags)
    edges = " ".join(f"{a}{b}" for a, b in decomposition.edges)
    return bags, edges


#: Every elimination order of the 4-cycle and the 3-path (``"2 1 4 3"``
#: eliminates X2, X1, X4, X3) and the bags and edges it induces.
CYCLE4_DECOMPOSITIONS = {
    "1 2 3 4": ("124 234 34 4", "01 12 23"),
    "1 2 4 3": ("124 234 34 3", "01 12 23"),
    "1 3 2 4": ("124 234 24 4", "02 12 23"),
    "1 3 4 2": ("124 234 24 2", "02 12 23"),
    "1 4 2 3": ("124 234 23 3", "01 12 23"),
    "1 4 3 2": ("124 234 23 2", "01 12 23"),
    "2 1 3 4": ("123 134 34 4", "01 12 23"),
    "2 1 4 3": ("123 134 34 3", "01 12 23"),
    "2 3 1 4": ("123 134 14 4", "01 12 23"),
    "2 3 4 1": ("123 134 14 1", "01 12 23"),
    "2 4 1 3": ("123 134 13 3", "02 12 23"),
    "2 4 3 1": ("123 134 13 1", "02 12 23"),
    "3 1 2 4": ("234 124 24 4", "02 12 23"),
    "3 1 4 2": ("234 124 24 2", "02 12 23"),
    "3 2 1 4": ("234 124 14 4", "01 12 23"),
    "3 2 4 1": ("234 124 14 1", "01 12 23"),
    "3 4 1 2": ("234 124 12 2", "01 12 23"),
    "3 4 2 1": ("234 124 12 1", "01 12 23"),
    "4 1 2 3": ("134 123 23 3", "01 12 23"),
    "4 1 3 2": ("134 123 23 2", "01 12 23"),
    "4 2 1 3": ("134 123 13 3", "02 12 23"),
    "4 2 3 1": ("134 123 13 1", "02 12 23"),
    "4 3 1 2": ("134 123 12 2", "01 12 23"),
    "4 3 2 1": ("134 123 12 1", "01 12 23"),
}
PATH3_DECOMPOSITIONS = {
    "1 2 3 4": ("12 23 34 4", "01 12 23"),
    "1 2 4 3": ("12 23 34 3", "01 13 23"),
    "1 3 2 4": ("12 234 24 4", "02 12 23"),
    "1 3 4 2": ("12 234 24 2", "03 12 23"),
    "1 4 2 3": ("12 34 23 3", "02 13 23"),
    "1 4 3 2": ("12 34 23 2", "03 12 23"),
    "2 1 3 4": ("123 13 34 4", "01 12 23"),
    "2 1 4 3": ("123 13 34 3", "01 13 23"),
    "2 3 1 4": ("123 134 14 4", "01 12 23"),
    "2 3 4 1": ("123 134 14 1", "01 12 23"),
    "2 4 1 3": ("123 34 13 3", "02 13 23"),
    "2 4 3 1": ("123 34 13 1", "02 12 23"),
    "3 1 2 4": ("234 12 24 4", "02 12 23"),
    "3 1 4 2": ("234 12 24 2", "02 13 23"),
    "3 2 1 4": ("234 124 14 4", "01 12 23"),
    "3 2 4 1": ("234 124 14 1", "01 12 23"),
    "3 4 1 2": ("234 24 12 2", "01 13 23"),
    "3 4 2 1": ("234 24 12 1", "01 12 23"),
    "4 1 2 3": ("34 12 23 3", "03 12 23"),
    "4 1 3 2": ("34 12 23 2", "02 13 23"),
    "4 2 1 3": ("34 123 13 3", "03 12 23"),
    "4 2 3 1": ("34 123 13 1", "02 12 23"),
    "4 3 1 2": ("34 23 12 2", "01 13 23"),
    "4 3 2 1": ("34 23 12 1", "01 12 23"),
}


class TestPinnedDecompositions:
    """The primal-graph construction's output, pinned order by order."""

    @pytest.mark.parametrize("query, expected", [
        (cycle_query(4), CYCLE4_DECOMPOSITIONS),
        (path_query(3), PATH3_DECOMPOSITIONS),
    ], ids=["cycle4", "path3"])
    def test_every_elimination_order(self, query, expected):
        h = query.hypergraph()
        orders = list(itertools.permutations(h.vertices))
        assert sorted(" ".join(v[1:] for v in o) for o in orders) == sorted(expected)
        for order in orders:
            decomposition = decomposition_from_elimination_order(h, order)
            assert decomposition.is_valid_for(h)
            assert _render(decomposition) == expected[" ".join(v[1:] for v in order)]

    def test_min_fill_orders(self):
        assert min_fill_order(cycle_query(7).hypergraph()) == (
            "X1", "X2", "X3", "X4", "X5", "X6", "X7")
        assert min_fill_order(clique_query(4).hypergraph()) == (
            "X1", "X2", "X3", "X4")

    def test_min_fill_on_a_star_eliminates_the_leaves_first(self):
        # Eliminating the hub X1 first would fill in every leaf pair.
        h = Hypergraph(("X1", "X2", "X3", "X4"),
                       {"R": {"X1", "X2"}, "S": {"X1", "X3"},
                        "T": {"X1", "X4"}})
        assert min_fill_order(h)[0] != "X1"


class TestFractionalHypertreeWidth:
    def test_acyclic_queries_have_width_one(self):
        assert fractional_hypertree_width(path_query(3).hypergraph()) == pytest.approx(1.0)

    def test_triangle_width(self):
        assert fractional_hypertree_width(triangle_query().hypergraph()) == pytest.approx(1.5)

    def test_width_never_exceeds_rho_star(self):
        for query in (triangle_query(), cycle_query(4), cycle_query(5), clique_query(4)):
            h = query.hypergraph()
            assert fractional_hypertree_width(h) <= rho_star(query) + 1e-9

    def test_four_cycle_width_below_rho_star(self):
        # rho*(C4) = 2, but a two-bag decomposition does strictly better than
        # the trivial single-bag one would suggest is necessary... the key
        # reproducible fact: fhtw(C4) < rho*(C4).
        h = cycle_query(4).hypergraph()
        width = fractional_hypertree_width(h)
        assert 1.0 < width <= 2.0

    def test_clique_width_equals_half_k(self):
        # The k-clique's only decompositions put all vertices in one bag (any
        # separator is a clique), so fhtw = rho* = k/2.
        assert fractional_hypertree_width(clique_query(4).hypergraph()) == pytest.approx(2.0)

    def test_best_decomposition_achieves_reported_width(self):
        h = cycle_query(4).hypergraph()
        decomposition = best_decomposition(h)
        assert decomposition.is_valid_for(h)
        assert decomposition_fhtw(decomposition, h) == pytest.approx(
            fractional_hypertree_width(h))

    def test_min_fill_order_is_permutation(self):
        h = clique_query(4).hypergraph()
        order = min_fill_order(h)
        assert sorted(order) == sorted(h.vertices)

    def test_greedy_fallback_used_for_larger_queries(self):
        h = cycle_query(7).hypergraph()
        width = fractional_hypertree_width(h, max_exact_vertices=5)
        assert 1.0 < width <= rho_star(cycle_query(7)) + 1e-9
