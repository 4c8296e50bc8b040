"""The hybrid estimate in the cost model.

The heavy/light estimate must behave like the theory says: where a few
fat keys make the recursion grind out output-free expansions it
undercuts every pure strategy (that is its reason to exist); on Zipf
triangles Generic-Join already absorbs the heavy/light trick (Skew
Strikes Back) and is priced — and measured — below it; on uniform
statistics it is infeasible (no value beats the |R|^(1/2) threshold, so
the split would degenerate into pure work plus partition passes); and
its side terms decompose the reported total.
"""

import pytest

from repro.datagen.graphs import (erdos_renyi_graph, zipf_outdegree_graph,
                                  zipf_triangle_instance)
from repro.datagen.worstcase import triangle_skew_instance
from repro.engine.cost import dispatch, plan_hybrid
from repro.query.builder import Query
from repro.relational.database import Database

PURE = ("generic", "leapfrog", "yannakakis", "binary", "naive")


def uniform_triangle(vertices=60, edges=240):
    query, _ = zipf_triangle_instance(8)  # just the triangle query shape
    return query, Database([
        erdos_renyi_graph(vertices, edges, seed=1, name="R",
                          attributes=("A", "B")),
        erdos_renyi_graph(vertices, edges, seed=2, name="S",
                          attributes=("B", "C")),
        erdos_renyi_graph(vertices, edges, seed=3, name="T",
                          attributes=("A", "C")),
    ])


class TestSkewedEnvelope:
    @pytest.mark.parametrize("skew", (1.2, 1.5, 2.0))
    @pytest.mark.parametrize("n", (300, 600))
    def test_generic_join_absorbs_the_split_on_zipf_triangles(self, skew, n):
        # This test used to pin ``hybrid`` here.  Measured on these six
        # instances (forced modes, warm): generic 1.6-3.9 k operations in
        # 2.4-5.5 ms, hybrid 11.9-27.2 k in 6.4-17.6 ms — the partition
        # passes and per-key sub-plans cost more than the hubs they save.
        query, database = zipf_triangle_instance(n, skew=skew, seed=0)
        decision = dispatch(query, database)
        assert decision.costs["generic"] < decision.costs["hybrid"] \
            < float("inf")
        assert decision.strategy == "generic"
        assert decision.costs["generic"] == min(
            decision.costs[s] for s in PURE)

    def test_hybrid_wins_on_single_hub_star_stats(self):
        # The classic skew-strikes-back star: one hub makes every
        # pairwise order quadratic; the hybrid isolates it as the one
        # heavy key and must price below binary (and win dispatch).
        query, database = triangle_skew_instance(300)
        decision = dispatch(query, database)
        assert decision.costs["hybrid"] < decision.costs["binary"]
        assert decision.strategy == "hybrid"

    def test_envelope_grows_with_instance_size(self):
        costs = []
        for n in (200, 400, 800):
            query, database = zipf_triangle_instance(n, skew=1.5, seed=0)
            costs.append(dispatch(query, database).costs["hybrid"])
        assert costs == sorted(costs)

    def test_side_terms_decompose_the_total(self):
        query, database = zipf_triangle_instance(400, skew=1.5, seed=0)
        costs = dispatch(query, database).costs
        # total = partition passes + heavy side + light side, so the
        # reported side terms never exceed it and their sum is a lower
        # bound accounting for everything but the partition scans.
        assert costs["hybrid[heavy]"] + costs["hybrid[light]"] <= costs["hybrid"]
        assert costs["hybrid[heavy]"] > 0
        assert costs["hybrid[light]"] > 0


class TestUniformEnvelope:
    def test_hybrid_infeasible_on_uniform_stats(self):
        query, database = uniform_triangle()
        decision = dispatch(query, database)
        assert decision.costs["hybrid"] == float("inf")
        assert decision.strategy != "hybrid"

    def test_plan_reports_not_skewed(self):
        query, database = uniform_triangle()
        plan = plan_hybrid(query, database)
        assert not plan["skewed"]
        assert plan["max_degree"] <= plan["threshold"]

    def test_zipf_plan_reports_skewed(self):
        query, database = zipf_triangle_instance(400, skew=1.5, seed=0)
        plan = plan_hybrid(query, database)
        assert plan["skewed"]
        assert plan["heavy_strategy"] == "yannakakis"  # path residual
        assert plan["light_strategy"] == "generic"

    def test_cyclic_residual_prices_a_binary_heavy_side(self):
        # Binding any variable of a 4-clique leaves a triangle: no per-key
        # Yannakakis, so the heavy side is one binary plan, priced by the
        # same pessimistic simulation pure binary gets.
        clique = Query.coerce("Q(A,B,C,D) :- R(A,B), S(B,C), T(A,C), "
                              "U(C,D), W(D,A), R(B,D)").core
        database = Database([
            zipf_outdegree_graph(30, 30, 150, skew=1.6, seed=seed,
                                 name=name, attributes=attributes)
            for seed, (name, attributes) in enumerate([
                ("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C")),
                ("U", ("C", "D")), ("W", ("D", "A"))])])
        plan = plan_hybrid(clique, database)
        assert plan["skewed"] and plan["heavy_strategy"] == "binary"
        heavy = dispatch(clique, database).costs["hybrid[heavy]"]
        assert 0 < heavy < float("inf")
