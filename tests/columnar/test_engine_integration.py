"""Engine-level wiring: explain lines, plan-cache axis, metrics, CLI."""

from __future__ import annotations

import pytest

from repro.engine.session import Engine
from repro.errors import QueryError
from repro.relational.relation import Relation

pytest.importorskip("numpy")

TRIANGLE = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"


def _engine(**kwargs):
    rows = [(i, (i * 3 + 1) % 7) for i in range(7)]
    return Engine(relations=[
        Relation("R", ("X", "Y"), rows),
        Relation("S", ("X", "Y"), rows),
        Relation("T", ("X", "Y"), rows),
    ], **kwargs)


class TestExplain:
    def test_backend_line_and_envelopes(self):
        engine = _engine()
        explanation = engine.explain(TRIANGLE, backend="columnar")
        assert explanation.backend == "columnar"
        assert explanation.backend_fallback is None
        rendered = explanation.render()
        assert "backend:        columnar" in rendered
        # Both backends' predictions appear in the cost estimates; on
        # seven rows the kernel's fixed per-level cost is the larger.
        assert explanation.costs["backend[python]"] < \
            explanation.costs["backend[columnar]"] < float("inf")
        assert "backend[columnar]" in rendered
        assert "backend[python]" in rendered

    def test_python_default_reports_python(self):
        engine = _engine()
        explanation = engine.explain(TRIANGLE)
        assert explanation.backend == "python"
        assert "backend:        python" in explanation.render()

    def test_fallback_reason_rendered(self):
        engine = _engine()
        rendered = engine.explain(TRIANGLE, mode="naive",
                                  backend="columnar").render()
        assert "fell back" in rendered

    def test_columnar_warm_indexes_track_layout_cache(self):
        engine = _engine(cache_results=False)
        cold = engine.explain(TRIANGLE, backend="columnar")
        assert cold.cold_indexes and not cold.warm_indexes
        engine.execute(TRIANGLE, backend="columnar")
        warm = engine.explain(TRIANGLE, backend="columnar")
        assert warm.warm_indexes and not warm.cold_indexes
        # The python plan's trie cache is a separate axis.
        assert engine.explain(TRIANGLE, mode="generic").cold_indexes


class TestDispatch:
    def test_backend_is_a_plan_cache_axis(self):
        engine = _engine(cache_results=False)
        engine.execute(TRIANGLE)
        assert engine.stats.plan_misses == 1
        engine.execute(TRIANGLE, backend="columnar")
        assert engine.stats.plan_misses == 2
        engine.execute(TRIANGLE, backend="columnar")
        assert engine.stats.plan_misses == 2

    def test_unknown_backend_rejected(self):
        engine = _engine()
        with pytest.raises(QueryError, match="unknown backend"):
            engine.execute(TRIANGLE, backend="vectorized")

    def test_auto_backend_prices_both(self):
        engine = _engine()
        explanation = engine.explain(TRIANGLE, backend="auto")
        costs = explanation.costs
        assert "backend[python]" in costs and "backend[columnar]" in costs
        assert explanation.backend == (
            "columnar" if costs["backend[columnar]"] < costs["backend[python]"]
            else "python")

    def test_execute_many_with_columnar_backend(self):
        engine = _engine(cache_results=False)
        queries = [TRIANGLE, "Q(A) :- R(A,B), S(B,C)"]
        python = [list(r.tuples)
                  for r in engine.execute_many(queries, mode="generic")]
        columnar = [list(r.tuples)
                    for r in engine.execute_many(queries, mode="generic",
                                                 backend="columnar")]
        assert columnar == python


class TestMetrics:
    def test_backend_dispatch_and_layout_counters(self):
        engine = _engine(metrics=True, cache_results=False)
        engine.execute(TRIANGLE)
        engine.execute(TRIANGLE, backend="columnar")
        engine.execute(TRIANGLE, backend="columnar")
        exposition = engine.metrics_exposition()
        assert 'repro_backend_dispatch_total{backend="python"} 1' in exposition
        assert ('repro_backend_dispatch_total{backend="columnar"} 2'
                in exposition)
        assert "repro_columnar_layout_builds_total 3" in exposition
        assert "repro_columnar_layouts 3" in exposition

    def test_layout_gauge_drops_on_mutation(self):
        engine = _engine(metrics=True, cache_results=False)
        engine.execute(TRIANGLE, backend="columnar")
        engine.insert("R", [(99, 100)])
        snapshot = engine.metrics_snapshot()
        assert snapshot["repro_columnar_layouts"] < 3


class TestCli:
    def test_cli_backend_flag(self, capsys):
        from repro.cli import engine_main
        code = engine_main(["--demo", "triangle-skew", "--size", "60",
                            "--backend", "columnar", "--explain",
                            "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend:        columnar" in out
        assert "repro_backend_dispatch_total" in out
        assert "repro_columnar_layouts" in out

    def test_cli_rejects_backend_with_subscribe(self, capsys):
        from repro.cli import engine_main
        with pytest.raises(SystemExit):
            engine_main(["--demo", "triangle-skew", "--subscribe",
                         "--backend", "columnar"])
