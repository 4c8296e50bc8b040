"""The cover-vertex table against the fractional edge cover LP.

The AGM bound is a minimum over the vertices of the fractional edge cover
polyhedron; the scipy LP is the oracle that minimum must agree with.
"""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.agm import agm_bound_from_sizes, rho_star
from repro.covers.edge_cover import (
    _vertex_table,
    cover_vertices,
    fractional_edge_cover_number,
    is_fractional_edge_cover,
    weighted_fractional_edge_cover,
)
from repro.errors import LPError
from repro.query.atoms import (
    Atom,
    ConjunctiveQuery,
    clique_query,
    cycle_query,
    loomis_whitney_query,
    path_query,
    triangle_query,
)
from repro.query.hypergraph import Hypergraph

STAR = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("A", "C")),
                         Atom("T", ("A", "D"))], name="star")

#: name -> (query, vertex count).  K4 (4 variables, 6 atoms) is the
#: largest shape the engine's tests dispatch.
SHAPES = {
    "triangle": (triangle_query(), 4),
    "4-cycle": (cycle_query(4), 2),
    "LW(4)": (loomis_whitney_query(4), 11),
    "3-path": (path_query(3), 1),
    "star": (STAR, 1),
    "5-cycle": (cycle_query(5), 6),
    "K4": (clique_query(4), 7),
}

SIZE = st.one_of(st.sampled_from([0, 1, 2, 10**6]), st.integers(0, 10**6))


def _sizes(query, data):
    keys = query.hypergraph().edge_keys
    values = data.draw(st.lists(SIZE, min_size=len(keys), max_size=len(keys)))
    return dict(zip(keys, values))


@pytest.mark.parametrize("name", sorted(SHAPES))
class TestVertexMinimumIsTheLpOptimum:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_agm_matches_lp(self, name, data):
        query, _count = SHAPES[name]
        hypergraph = query.hypergraph()
        sizes = _sizes(query, data)
        bound = agm_bound_from_sizes(hypergraph, sizes)
        assert is_fractional_edge_cover(hypergraph, bound.cover)
        if 0 in sizes.values():
            assert bound.log2_bound == float("-inf")
            assert sum(bound.cover.values()) == pytest.approx(
                fractional_edge_cover_number(hypergraph), rel=1e-9)
            return
        costs = {key: math.log2(size) if size > 1 else 0.0
                 for key, size in sizes.items()}
        optimum = weighted_fractional_edge_cover(hypergraph, costs).objective
        assert bound.log2_bound == pytest.approx(optimum, rel=1e-9, abs=1e-12)
        assert sum(bound.cover[k] * costs[k] for k in costs) == pytest.approx(
            bound.log2_bound, rel=1e-12, abs=1e-12)

    def test_rho_star_matches_lp(self, name):
        query, _count = SHAPES[name]
        assert rho_star(query) == pytest.approx(
            fractional_edge_cover_number(query.hypergraph()), rel=1e-9)

    def test_vertex_count_and_first_enumeration_time(self, name):
        query, count = SHAPES[name]
        hypergraph = query.hypergraph()
        best = math.inf
        for _ in range(3):
            _vertex_table.cache_clear()
            start = time.perf_counter()
            table = cover_vertices(hypergraph)
            best = min(best, time.perf_counter() - start)
        assert len(table) == count
        assert all(is_fractional_edge_cover(
            hypergraph, dict(zip(hypergraph.edge_keys, vertex)))
            for vertex in table)
        assert best < 0.020


class TestTieBreak:
    def test_tie_goes_to_the_first_vertex_of_the_table(self):
        # Uniform sizes on the 4-cycle: both perfect matchings cost 2 log N.
        hypergraph = cycle_query(4).hypergraph()
        sizes = {key: 64 for key in hypergraph.edge_keys}
        bound = agm_bound_from_sizes(hypergraph, sizes)
        first = dict(zip(hypergraph.edge_keys, cover_vertices(hypergraph)[0]))
        assert bound.cover == first
        assert bound.log2_bound == pytest.approx(12.0)

    def test_deterministic_across_calls_and_cache_clears(self):
        hypergraph = clique_query(4).hypergraph()
        sizes = {key: 1000 for key in hypergraph.edge_keys}
        first = agm_bound_from_sizes(hypergraph, sizes)
        _vertex_table.cache_clear()
        again = agm_bound_from_sizes(hypergraph, sizes)
        assert again.cover == first.cover
        assert again.log2_bound == first.log2_bound

    def test_empty_relation_reports_the_rho_star_vertex(self):
        hypergraph = triangle_query().hypergraph()
        bound = agm_bound_from_sizes(hypergraph, {"R": 0, "S": 5, "T": 5})
        assert bound.bound == 0.0
        assert bound.cover == {"R": 0.5, "S": 0.5, "T": 0.5}


class TestTable:
    def test_keyed_by_incidence_pattern_not_names(self):
        _vertex_table.cache_clear()
        first = cover_vertices(triangle_query().hypergraph())
        renamed = cover_vertices(triangle_query("X", "Y", "Z").hypergraph())
        assert renamed == first
        info = _vertex_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_triangle_vertices_exactly(self):
        table = cover_vertices(triangle_query().hypergraph())
        assert sorted(table) == [(0.0, 1.0, 1.0), (0.5, 0.5, 0.5),
                                 (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)]

    def test_uncovered_vertex_raises_as_the_lp_does(self):
        hypergraph = Hypergraph(["A", "B", "C"], {"R": ["A", "B"]})
        with pytest.raises(LPError) as lp:
            weighted_fractional_edge_cover(hypergraph, {"R": 1.0})
        with pytest.raises(LPError) as table:
            cover_vertices(hypergraph)
        assert str(table.value) == str(lp.value)
        with pytest.raises(LPError):
            agm_bound_from_sizes(hypergraph, {"R": 10})
        with pytest.raises(LPError):
            agm_bound_from_sizes(hypergraph, {"R": 0})
