"""The exact simplex cover solver against the fractional edge cover LP.

The AGM bound and rho* are one exact simplex solve on the packing dual
(``cheapest_cover``); scipy's ``linprog`` on the cover LP is the oracle
that solve must agree with, and the cover it returns must be feasible.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.bounds.agm import agm_bound_from_sizes, rho_star
from repro.covers.edge_cover import (
    _packing_simplex,
    cheapest_cover,
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

SHAPES = {
    "triangle": triangle_query(),
    "4-cycle": cycle_query(4),
    "LW(4)": loomis_whitney_query(4),
    "3-path": path_query(3),
    "star": STAR,
    "5-cycle": cycle_query(5),
    "K4": clique_query(4),
    **{f"{k}-cycle": cycle_query(k) for k in range(8, 15)},
    "12-path": path_query(12),
    "30-path": path_query(30),
    **{f"K{k}": clique_query(k) for k in (6, 7, 8)},
}

SIZE = st.one_of(st.sampled_from([0, 1, 2, 10**6]), st.integers(0, 10**6))


def _highs_optimum(hypergraph, costs):
    """scipy's HiGHS on the cover LP: min costs . delta over FECP(H)."""
    keys = hypergraph.edge_keys
    cover_rows = [[-1.0 if vertex in hypergraph.edge(key) else 0.0 for key in keys]
                  for vertex in hypergraph.vertices]
    result = linprog([costs[key] for key in keys], A_ub=cover_rows,
                     b_ub=[-1.0] * len(cover_rows), bounds=(0, None), method="highs")
    assert result.success, result.message
    return result.fun


def _rho_star_oracle(hypergraph):
    return _highs_optimum(hypergraph, dict.fromkeys(hypergraph.edge_keys, 1.0))


def _sizes(query, data):
    keys = query.hypergraph().edge_keys
    values = data.draw(st.lists(SIZE, min_size=len(keys), max_size=len(keys)))
    return dict(zip(keys, values))


@pytest.mark.parametrize("name", sorted(SHAPES))
class TestSolverIsTheLpOptimum:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_agm_matches_lp(self, name, data):
        query = SHAPES[name]
        hypergraph = query.hypergraph()
        sizes = _sizes(query, data)
        bound = agm_bound_from_sizes(hypergraph, sizes)
        assert is_fractional_edge_cover(hypergraph, bound.cover)
        if 0 in sizes.values():
            assert bound.log2_bound == float("-inf")
            assert sum(bound.cover.values()) == pytest.approx(
                _rho_star_oracle(hypergraph), rel=1e-9)
            return
        costs = {key: math.log2(size) if size > 1 else 0.0
                 for key, size in sizes.items()}
        optimum = _highs_optimum(hypergraph, costs)
        assert bound.log2_bound == pytest.approx(optimum, rel=1e-9, abs=1e-12)
        assert sum(bound.cover[k] * costs[k] for k in costs) == pytest.approx(
            bound.log2_bound, rel=1e-12, abs=1e-12)

    def test_rho_star_matches_lp(self, name):
        query = SHAPES[name]
        hypergraph = query.hypergraph()
        assert rho_star(query) == pytest.approx(
            _rho_star_oracle(hypergraph), rel=1e-9)
        cover = cheapest_cover(hypergraph, [1.0] * hypergraph.num_edges())
        assert is_fractional_edge_cover(
            hypergraph, dict(zip(hypergraph.edge_keys, cover)))


class TestDeterminism:
    def test_same_cover_across_calls_memo_clears_and_names(self):
        # Uniform sizes on the 4-cycle: both perfect matchings (and every
        # mix of them) cost 2 log N; the solver must name one and keep it.
        hypergraph = cycle_query(4).hypergraph()
        renamed = cycle_query(4, relation_prefix="F").hypergraph()
        sizes = {key: 64 for key in hypergraph.edge_keys}
        first = agm_bound_from_sizes(hypergraph, sizes)
        assert first.log2_bound == pytest.approx(12.0)
        assert set(first.cover.values()) <= {0.0, 0.5, 1.0}
        again = agm_bound_from_sizes(hypergraph, sizes)
        _packing_simplex.cache_clear()
        cleared = agm_bound_from_sizes(hypergraph, sizes)
        other = agm_bound_from_sizes(
            renamed, {key: 64 for key in renamed.edge_keys})
        for bound in (again, cleared, other):
            assert list(bound.cover.values()) == list(first.cover.values())
            assert bound.log2_bound == first.log2_bound

    def test_memo_is_keyed_by_incidence_pattern_not_names(self):
        _packing_simplex.cache_clear()
        first = cheapest_cover(triangle_query().hypergraph(), [1.0, 2.0, 3.0])
        renamed = cheapest_cover(triangle_query("X", "Y", "Z").hypergraph(),
                                 [1.0, 2.0, 3.0])
        assert renamed == first
        info = _packing_simplex.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_empty_relation_reports_the_rho_star_vertex(self):
        hypergraph = triangle_query().hypergraph()
        bound = agm_bound_from_sizes(hypergraph, {"R": 0, "S": 5, "T": 5})
        assert bound.bound == 0.0
        assert bound.cover == {"R": 0.5, "S": 0.5, "T": 0.5}


class TestVertices:
    @pytest.mark.parametrize("costs, vertex", [
        ((1.0, 1.0, 1.0), (0.5, 0.5, 0.5)),
        ((1.0, 1.0, 5.0), (1.0, 1.0, 0.0)),
        ((1.0, 5.0, 1.0), (1.0, 0.0, 1.0)),
        ((5.0, 1.0, 1.0), (0.0, 1.0, 1.0)),
    ])
    def test_each_triangle_vertex_is_the_strict_optimum_of_some_costs(
            self, costs, vertex):
        assert cheapest_cover(triangle_query().hypergraph(), costs) == vertex

    def test_uncovered_vertex_raises_as_the_lp_does(self):
        hypergraph = Hypergraph(["A", "B", "C"], {"R": ["A", "B"]})
        with pytest.raises(LPError) as lp:
            weighted_fractional_edge_cover(hypergraph, {"R": 1.0})
        with pytest.raises(LPError) as solver:
            cheapest_cover(hypergraph, [1.0])
        assert str(solver.value) == str(lp.value)
        with pytest.raises(LPError):
            agm_bound_from_sizes(hypergraph, {"R": 10})
        with pytest.raises(LPError):
            agm_bound_from_sizes(hypergraph, {"R": 0})
