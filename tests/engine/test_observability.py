"""Integration tests: the engine's tracer spans and metrics registry."""

import importlib

import pytest

from repro.engine import Engine
from repro.errors import QueryError
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer, parse_exposition
from repro.relational.database import Database
from repro.relational.relation import Relation


@pytest.fixture
def traced(small_triangle_instance):
    query, database, _expected = small_triangle_instance
    tracer = Tracer()
    return Engine(database, tracer=tracer, collect_operations=True), \
        tracer, query


class _NamingTracer(Tracer):
    """A tracer that can name the spans open at any moment."""

    def __init__(self):
        super().__init__()
        self.names = {}

    def span(self, name, **attributes):
        live = super().span(name, **attributes)
        self.names[live.span_id] = name
        return live

    def open_names(self):
        return [self.names[span_id] for span_id in self._stack]


class TestTracing:
    def test_cold_query_emits_full_span_taxonomy(self, traced):
        engine, tracer, query = traced
        engine.execute(query)
        names = {span.name for span in tracer}
        assert names == {"query", "parse", "canonicalize",
                         "plan_cache.lookup", "dispatch.price",
                         "index.resolve", "execute", "deliver"}

    def test_stage_spans_nest_under_the_query_span(self, traced):
        engine, tracer, query = traced
        engine.execute(query)
        root = tracer.find("query")[0]
        assert root.parent_id is None
        children = {span.name for span in tracer.children(root)}
        assert "parse" in children and "deliver" in children

    def test_query_span_carries_outcome_attributes(self, traced):
        engine, tracer, query = traced
        engine.execute(query)
        root = tracer.find("query")[0]
        assert root.attributes["rows"] == 4
        assert root.attributes["plan_cache"] == "miss"
        assert root.attributes["strategy"]

    def test_execute_span_reports_operations(self, traced):
        engine, tracer, query = traced
        engine.execute(query)
        execute = tracer.find("execute")[0]
        assert execute.attributes["rows"] == 4
        assert execute.attributes["operations"]["total"] > 0

    def test_cache_hit_query_skips_pricing_and_execution(self, traced):
        engine, tracer, query = traced
        engine.execute(query)
        tracer.reset()
        engine.execute(query)  # result-cache hit
        names = [span.name for span in tracer]
        assert "dispatch.price" not in names
        assert "execute" not in names
        deliver = tracer.find("deliver")[0]
        assert deliver.attributes["result_cache"] == "hit"

    def test_untraced_engine_uses_null_tracer(self, small_triangle_instance):
        query, database, _ = small_triangle_instance
        engine = Engine(database)
        assert not engine.tracer.enabled
        engine.execute(query)
        assert len(engine.tracer) == 0

    def test_tracer_is_never_none(self, small_triangle_instance):
        _query, database, _ = small_triangle_instance
        assert Engine(database, tracer=None).tracer is NULL_TRACER
        engine = Engine(database, tracer=Tracer())
        engine.tracer = None
        assert engine.tracer is NULL_TRACER

    @pytest.mark.parametrize("text, mode, backend, executor", [
        ("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", "binary", "python",
         "repro.engine.executors.BinaryPlanExecutor"),
        ("Q(A,B,C) :- R(A,B), S(B,C)", "yannakakis", "python",
         "repro.engine.executors.YannakakisExecutor"),
        ("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", "generic", "columnar",
         "repro.columnar.executor.ColumnarExecutor"),
    ])
    def test_executor_runs_inside_the_execute_span(
            self, small_triangle_instance, monkeypatch, text, mode, backend,
            executor):
        # Eager executors finish inside stream(); if execute opened after
        # it, their whole run would fall outside every stage span.
        if backend == "columnar":
            pytest.importorskip("numpy")
        module, _, name = executor.rpartition(".")
        executor = getattr(importlib.import_module(module), name)
        _query, database, _ = small_triangle_instance
        tracer = _NamingTracer()
        open_at_call = []
        original = executor.stream

        def stream(self, *args, **kwargs):
            open_at_call.append(tracer.open_names())
            return original(self, *args, **kwargs)

        monkeypatch.setattr(executor, "stream", stream)
        Engine(database, tracer=tracer).execute(text, mode=mode,
                                                backend=backend)
        assert open_at_call == [["query", "execute"]]
        # index.resolve stays a sibling of execute, closed before it opens.
        (root,), (resolve,), (execute,) = (
            tracer.find(name) for name in ("query", "index.resolve",
                                           "execute"))
        assert resolve.parent_id == execute.parent_id == root.span_id
        assert resolve.span_id < execute.span_id


class TestMetrics:
    def test_query_and_cache_counters(self, small_triangle_instance):
        query, database, _ = small_triangle_instance
        engine = Engine(database)
        engine.execute(query, mode="generic")  # an index-building plan
        engine.execute(query, mode="generic")
        snapshot = engine.metrics_snapshot()
        assert snapshot["repro_queries_total"] == 2
        assert snapshot['repro_plan_cache_lookups_total{outcome="miss"}'] == 1
        assert snapshot['repro_result_cache_lookups_total{outcome="hit"}'] == 1
        assert snapshot['repro_index_events_total{event="build"}'] > 0

    def test_dispatch_and_operation_counters(self, small_triangle_instance):
        query, database, _ = small_triangle_instance
        engine = Engine(database, collect_operations=True,
                        cache_results=False)
        engine.execute(query, mode="generic")
        snapshot = engine.metrics_snapshot()
        assert snapshot['repro_dispatch_total{strategy="generic"}'] == 1
        assert snapshot['repro_operations_total{kind="search_nodes"}'] > 0
        # Per-variable attribution sums back to the plain total.
        per_variable = sum(
            value for name, value in snapshot.items()
            if name.startswith("repro_search_nodes_total"))
        assert per_variable == \
            snapshot['repro_operations_total{kind="search_nodes"}']

    def test_gauges_reflect_cache_occupancy(self, small_triangle_instance):
        query, database, _ = small_triangle_instance
        engine = Engine(database)
        engine.execute(query, mode="generic")
        snapshot = engine.metrics_snapshot()
        assert snapshot["repro_plan_cache_entries"] == 1
        assert snapshot["repro_result_cache_entries"] == 1
        assert snapshot["repro_registry_indexes"] > 0

    def test_invalidate_event_on_replace(self, small_triangle_instance):
        query, database, _ = small_triangle_instance
        engine = Engine(database)
        engine.execute(query, mode="generic")
        engine.replace_relation(
            Relation("R", ("A", "B"), [(1, 1)]))
        snapshot = engine.metrics_snapshot()
        assert snapshot['repro_index_events_total{event="invalidate"}'] > 0

    def test_calibration_and_regret_recorded_on_counted_runs(
            self, small_triangle_instance):
        query, database, _ = small_triangle_instance
        engine = Engine(database, collect_operations=True,
                        cache_results=False)
        strategy = engine.explain(query).strategy
        engine.execute(query)
        snapshot = engine.metrics_snapshot()
        ratio = snapshot[
            f'repro_dispatch_calibration_ratio{{strategy="{strategy}"}}']
        assert ratio["count"] == 1 and ratio["sum"] > 0
        assert snapshot["repro_dispatch_regret_ops"] >= 0
        # A forced plan is priced like auto's candidate; one priced inf
        # (hybrid where every degree is 1) carries no prediction, and an
        # uncounted run no actual.
        engine.execute(query, mode="leapfrog")
        assert any("calibration" in name and "leapfrog" in name
                   for name in engine.metrics_snapshot())
        unskewed = Engine(relations=[
            Relation(name, ("x", "y"), [(i, i) for i in range(6)])
            for name in ("R", "S", "T")], collect_operations=True)
        unskewed.execute(query, mode="hybrid")
        quiet = Engine(database, cache_results=False)
        quiet.execute(query)
        assert not any("calibration" in name
                       for name in unskewed.metrics_snapshot())
        assert not any("calibration" in name
                       for name in quiet.metrics_snapshot())

    def test_explain_shows_predicted_and_measured_milliseconds(
            self, small_triangle_instance):
        query, database, _ = small_triangle_instance
        engine = Engine(database)
        plain = engine.explain(query)
        line = next(l for l in plain.render().splitlines()
                    if l.startswith("cost estimates:"))
        assert f"{plain.strategy}={plain.costs[plain.strategy]:.4g} ms" in line
        assert "ops[" not in line and "measured" not in line
        analyzed = engine.explain(query, analyze=True).render()
        assert "ms (measured " in analyzed and "calibration " in analyzed

    def test_anyk_delay_histograms_populate(self):
        edges = [(i, j) for i in range(6) for j in range(6)]
        database = Database([Relation("R", ("A", "B"), edges),
                             Relation("S", ("B", "C"), edges)])
        engine = Engine(database)
        q = "Q(A,B,C) :- R(A,B), S(B,C) ORDER BY B DESC, A LIMIT 9"
        rows = list(engine.stream(q, ranked_mode="anyk"))
        assert len(rows) == 9
        snapshot = engine.metrics_snapshot()
        first = engine.metrics.get("repro_anyk_first_row_seconds")
        delay = engine.metrics.get("repro_anyk_delay_seconds")
        assert first.snapshot()["count"] == 1
        assert delay.snapshot()["count"] == 8
        assert snapshot["repro_anyk_delay_seconds"]["count"] == 8

    def test_exposition_parses_back(self, small_triangle_instance):
        query, database, _ = small_triangle_instance
        engine = Engine(database)
        engine.execute(query)
        parsed = parse_exposition(engine.metrics_exposition())
        assert parsed["repro_queries_total"][""] == 1
        assert "repro_execution_seconds_bucket" in parsed

    def test_shared_registry_across_engines(self, small_triangle_instance):
        query, database, _ = small_triangle_instance
        registry = MetricsRegistry()
        first = Engine(database, metrics=registry)
        second = Engine(database, metrics=registry)
        first.execute(query)
        second.execute(query)
        assert registry.get("repro_queries_total").value() == 2

    def test_metrics_disabled_raises_on_access(
            self, small_triangle_instance):
        query, database, _ = small_triangle_instance
        engine = Engine(database, metrics=False)
        engine.execute(query)
        assert engine.metrics is None
        with pytest.raises(QueryError):
            engine.metrics_snapshot()
        with pytest.raises(QueryError):
            engine.metrics_exposition()
