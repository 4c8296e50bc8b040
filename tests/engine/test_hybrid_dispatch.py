"""Hybrid heavy/light plans as a first-class dispatch citizen.

Dispatch decisions (hybrid wins where a few fat keys defeat the
recursion, is infeasible on uniform instances), payload and plan-cache
round-trips (including isomorphic renames), ``explain()``'s hybrid-split
report, forced-mode interactions with the aggregate/ranked mode axes,
and the IVM fallback-matrix row.
"""

import pytest

from repro.datagen.graphs import (
    erdos_renyi_graph,
    skew_cycle_instance,
    zipf_triangle_instance,
)
from repro.engine import Engine
from repro.engine.cost import dispatch
from repro.errors import QueryError
from repro.query.builder import Q, Query
from repro.query.semiring import count
from repro.relational.database import Database

TRIANGLE = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"
CYCLE_QUERY = "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)"


def zipf_engine(n=400, skew=1.5, seed=0):
    _query, database = zipf_triangle_instance(n, skew=skew, seed=seed)
    return Engine(database)


def uniform_engine(vertices=60, edges=240):
    return Engine(Database([
        erdos_renyi_graph(vertices, edges, seed=1, name="R",
                          attributes=("A", "B")),
        erdos_renyi_graph(vertices, edges, seed=2, name="S",
                          attributes=("B", "C")),
        erdos_renyi_graph(vertices, edges, seed=3, name="T",
                          attributes=("A", "C")),
    ]))


class TestDispatchDecision:
    def test_auto_picks_hybrid_where_it_does_5x_fewer_operations(self):
        # The bench_hybrid_skew.py instance: twelve hubs whose expansion
        # the recursion grinds out for nothing, where per-key residual
        # sub-plans pay a few linear passes (its CI gate: >= 5x fewer
        # operations than the best pure strategy).
        database = skew_cycle_instance(1.5)
        decision = dispatch(Query.coerce(CYCLE_QUERY).core, database)
        assert decision.strategy == "hybrid"
        assert decision.costs["hybrid"] < decision.costs["generic"] / 5
        assert decision.costs["binary"] == float("inf")

    def test_zipf_triangle_goes_to_generic_join(self):
        # Pinned ``hybrid`` before dispatch priced WCOJ from the
        # instance's degrees; measured here, generic does 2.6 k operations
        # in 3.6 ms against hybrid's 19.5 k in 10.4 ms.
        query, database = zipf_triangle_instance(400, skew=1.5, seed=0)
        decision = dispatch(query, database)
        assert decision.strategy == "generic"
        assert decision.costs["generic"] < decision.costs["hybrid"]

    def test_payload_names_split_and_per_side_strategies(self):
        query, database = zipf_triangle_instance(400, skew=1.5, seed=0)
        decision = dispatch(query, database, mode="hybrid")
        tag, variable, threshold, heavy, light = decision.payload
        assert tag == "hybrid"
        assert variable in ("A", "B", "C")
        assert threshold > 1.0
        # A triangle's residual after binding the skew variable is a
        # 2-path, so the heavy side runs per-key Yannakakis sub-plans.
        assert heavy == "yannakakis"
        assert light == "generic"

    def test_uniform_instance_prices_hybrid_infeasible(self):
        engine = uniform_engine()
        decision = dispatch(Query.coerce(TRIANGLE).core, engine.database)
        assert decision.strategy != "hybrid"
        assert decision.costs["hybrid"] == float("inf")

    def test_side_costs_are_reported(self):
        engine = zipf_engine()
        explanation = engine.explain(TRIANGLE)
        assert "hybrid[heavy]" in explanation.costs
        assert "hybrid[light]" in explanation.costs
        assert (explanation.costs["hybrid"]
                >= explanation.costs["hybrid[heavy]"])


class TestExplainReport:
    def test_hybrid_split_lines(self):
        engine = zipf_engine()
        explanation = engine.explain(TRIANGLE, mode="hybrid")
        assert explanation.strategy == "hybrid"
        assert len(explanation.hybrid_split) == 3
        skew_line, heavy_line, light_line = explanation.hybrid_split
        assert "skew variable" in skew_line
        assert "degree threshold" in skew_line
        assert "keys" in heavy_line and "-> yannakakis" in heavy_line
        assert "per-key degree" in light_line and "-> generic" in light_line
        rendered = explanation.render()
        assert "hybrid split:" in rendered

    def test_non_hybrid_plans_have_no_split(self):
        engine = uniform_engine()
        explanation = engine.explain(TRIANGLE)
        assert explanation.hybrid_split == ()
        assert "hybrid split:" not in explanation.render()


class TestPlanCache:
    def test_repeat_query_hits_plan_cache(self):
        engine = zipf_engine()
        engine.execute(TRIANGLE, mode="hybrid")
        engine.execute(TRIANGLE + " ", mode="hybrid")  # same canonical form
        assert engine.stats.plan_hits >= 1

    def test_isomorphic_rename_round_trips_payload(self):
        engine = zipf_engine()
        first = engine.execute(TRIANGLE, mode="hybrid")
        renamed = "Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z)"
        served = engine.execute(renamed, mode="hybrid")
        assert engine.stats.plan_hits == 1
        oracle = engine.execute(renamed, mode="generic")
        assert sorted(served.tuples) == sorted(oracle.tuples)
        assert sorted(first.tuples) == sorted(served.tuples)


class TestForcedModeInteractions:
    def test_forced_hybrid_executes(self):
        engine = zipf_engine()
        result = engine.execute(TRIANGLE, mode="hybrid")
        oracle = engine.execute(TRIANGLE, mode="generic")
        assert sorted(result.tuples) == sorted(oracle.tuples)

    def test_forced_hybrid_rejects_in_recursion_aggregation(self):
        engine = zipf_engine()
        q = (Q.from_("R", "A", "B").from_("S", "B", "C")
             .from_("T", "A", "C").select("A", count()).group_by("A"))
        with pytest.raises(QueryError, match="cannot aggregate in-recursion"):
            engine.execute(q, mode="hybrid", aggregate_mode="recursion")
        folded = engine.execute(q, mode="hybrid", aggregate_mode="fold")
        oracle = engine.execute(q, mode="generic")
        assert sorted(folded.tuples) == sorted(oracle.tuples)

    def test_forced_hybrid_rejects_anyk(self):
        engine = zipf_engine()
        q = (Q.from_("R", "A", "B").from_("S", "B", "C")
             .from_("T", "A", "C").select("A", "B").order_by("-A").limit(3))
        with pytest.raises(QueryError, match="cannot enumerate in rank"):
            engine.execute(q, mode="hybrid", ranked_mode="anyk")
        assert (list(engine.stream(q, mode="hybrid", ranked_mode="drain"))
                == list(engine.stream(q, mode="generic",
                                      ranked_mode="drain")))


class TestIvmFallback:
    # An acyclic shape: the structural decision (cyclic hypergraphs never
    # maintain incrementally) does not fire, so the hybrid-specific row of
    # the fallback matrix is what decides.
    STAR = "Q(A,B,C) :- R(A,B), T(A,C)"

    def test_hybrid_plan_falls_back_to_tracked_refresh(self):
        engine = zipf_engine()
        sub = engine.subscribe(self.STAR, mode="hybrid")
        assert sub.fallback_reason is not None
        assert "hybrid" in sub.fallback_reason
        assert "partition boundary" in sub.fallback_reason
        assert not sub.incremental

    def test_cyclic_hybrid_subscription_reports_structural_reason(self):
        # Cyclic queries were never maintainable; a hybrid plan does not
        # change that reason, and the refresh path still serves deltas.
        engine = zipf_engine()
        sub = engine.subscribe(TRIANGLE)
        assert "cyclic" in sub.fallback_reason
        assert not sub.incremental

    def test_deltas_keep_hybrid_subscription_correct(self):
        engine = zipf_engine(n=250)
        sub = engine.subscribe(self.STAR, mode="hybrid")
        engine.apply_delta("R", inserts=[(0, 70 + i) for i in range(10)])
        engine.apply_delta("T", deletes=list(
            engine.database.get("T").tuples)[:5])
        assert sub.last_maintenance.kind == "refresh"
        oracle = Engine(engine.database).execute(self.STAR, mode="generic")
        assert sorted(sub.result.tuples) == sorted(oracle.tuples)
