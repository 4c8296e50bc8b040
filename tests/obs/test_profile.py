"""Tests for EXPLAIN ANALYZE: profiling and cost-model calibration."""

import pytest

from repro.datagen.graphs import erdos_renyi_graph
from repro.engine import Engine
from repro.obs import ProfileReport, StrategyProfile, profile_query
from repro.relational.relation import Relation


@pytest.fixture
def engine(small_triangle_instance):
    _query, database, _expected = small_triangle_instance
    return Engine(database)


@pytest.fixture
def triangle(small_triangle_instance):
    query, _database, _expected = small_triangle_instance
    return query


class TestProfileQuery:
    def test_profiles_every_priced_strategy(self, engine, triangle):
        report = profile_query(engine, triangle)
        strategies = {p.strategy for p in report.profiles}
        assert {"naive", "binary", "generic", "leapfrog"} <= strategies
        assert all(p.predicted is not None for p in report.profiles)
        assert all(p.rows == 4 for p in report.profiles)

    def test_calibration_is_actual_over_predicted(self, engine, triangle):
        report = profile_query(engine, triangle)
        for profile in report.profiles:
            assert profile.calibration == pytest.approx(
                profile.actual / profile.predicted)
            # The envelope is a worst-case bound estimate; on this tiny
            # instance no strategy should exceed it wildly.
            assert profile.calibration < 100

    def test_dispatched_strategy_is_profiled(self, engine, triangle):
        report = profile_query(engine, triangle)
        assert report.profile_for(report.dispatched) is not None
        assert report.profile_for("no_such_strategy") is None

    def test_best_strategy_has_minimal_operations(self, engine, triangle):
        report = profile_query(engine, triangle)
        best = report.profile_for(report.best_strategy)
        assert best.actual == min(p.actual for p in report.profiles)
        assert report.dispatch_optimal == (
            report.profile_for(report.dispatched).actual == best.actual)

    def test_forced_mode_profiles_one_strategy_priced(self, engine,
                                                      triangle):
        report = profile_query(engine, triangle, mode="generic")
        assert [p.strategy for p in report.profiles] == ["generic"]
        auto = engine.explain(triangle).costs
        assert report.profiles[0].predicted == auto["ops[generic]"]
        assert report.profiles[0].predicted_ms == auto["generic"]
        assert report.profiles[0].calibration == pytest.approx(
            report.profiles[0].actual / report.profiles[0].predicted)

    def test_forced_mode_priced_inf_profiles_unpriced(self, triangle):
        # Every value has degree 1: no key is heavy, hybrid is priced inf.
        engine = Engine(relations=[
            Relation(name, ("x", "y"), [(i, i) for i in range(6)])
            for name in ("R", "S", "T")])
        report = profile_query(engine, triangle, mode="hybrid")
        assert [p.strategy for p in report.profiles] == ["hybrid"]
        assert report.profiles[0].predicted is None
        assert report.profiles[0].calibration is None
        assert report.profiles[0].rows == 6

    def test_breakdown_attributes_search_nodes(self, engine, triangle):
        report = profile_query(engine, triangle, mode="generic")
        breakdown = report.profiles[0].breakdown
        per_variable = {label: count for label, count in breakdown.items()
                        if label.startswith("search_nodes[")}
        assert per_variable
        total = report.profiles[0].operations["search_nodes"]
        assert sum(per_variable.values()) == total

    def test_profiling_bypasses_result_cache(self, engine, triangle):
        engine.execute(triangle)  # seed the result cache
        report = profile_query(engine, triangle)
        assert all(p.actual > 0 for p in report.profiles)


class TestEngineSurface:
    def test_engine_profile_delegates(self, engine, triangle):
        report = engine.profile(triangle)
        assert isinstance(report, ProfileReport)
        assert report.profiles

    def test_explain_analyze_attaches_report(self, engine, triangle):
        explanation = engine.explain(triangle, analyze=True)
        assert isinstance(explanation.analysis, ProfileReport)
        rendered = explanation.render()
        assert "calibration" in rendered
        assert explanation.strategy == explanation.analysis.dispatched

    def test_explain_without_analyze_has_no_report(self, engine, triangle):
        assert engine.explain(triangle).analysis is None

    @pytest.mark.parametrize("backend", ["columnar", "auto"])
    def test_explain_analyze_profiles_the_backend_it_explained(self,
                                                               backend):
        """On a 300-row 2-path the python backend dispatches ``binary``
        (one hash join, 3.3 ms) while a columnar or auto request resolves
        to ``generic`` on the columnar kernel (0.7 ms: its fixed cost per
        level is amortised): the attached profile must be of the request
        that was explained."""
        pytest.importorskip("numpy")
        engine = Engine(relations=[
            erdos_renyi_graph(100, 300, seed=seed, name=name,
                              attributes=attributes)
            for seed, (name, attributes) in enumerate(
                [("R", ("A", "B")), ("S", ("B", "C"))])])
        query = "Q(A,B,C) :- R(A,B), S(B,C)"
        assert engine.explain(query).strategy == "binary"
        explanation = engine.explain(query, backend=backend, analyze=True)
        assert explanation.strategy == "generic"
        assert explanation.backend == "columnar"
        assert explanation.analysis.dispatched == explanation.strategy


class TestRender:
    def test_render_lists_strategies_and_verdict(self, engine, triangle):
        report = engine.profile(triangle)
        rendered = report.render()
        assert "dispatched:" in rendered
        for profile in report.profiles:
            assert profile.strategy in rendered
        assert ("empirically best" in rendered
                or "did fewer operations" in rendered)
        assert str(report) == rendered

    def test_render_marks_dispatched_row(self, engine, triangle):
        report = engine.profile(triangle)
        marked = [line for line in report.render().splitlines()
                  if line.endswith(" *")]
        assert len(marked) == 1
        assert report.dispatched in marked[0]

    def test_strategy_profile_actual_property(self):
        profile = StrategyProfile(strategy="generic", predicted=10.0,
                                  operations={"total": 7})
        assert profile.actual == 7
        assert StrategyProfile("x", None, {}).actual == 0
