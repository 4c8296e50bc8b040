"""Fallback transparency: an unsupported feature must never error.

Whether the gap is caught at plan time (priced infeasible, backend
resolves to python with a recorded reason) or at run time (data-dependent
— mixed value domains, non-integer SUM), a ``backend="columnar"`` request
always returns exactly the python backend's answer.
"""

from __future__ import annotations

import pytest

from repro.engine.session import Engine
from repro.relational.relation import Relation

pytest.importorskip("numpy")


def _engine(**kwargs):
    return Engine(relations=[
        Relation("R", ("X", "Y"), [(1, 2), (2, 3), (3, 1), (1, 3)]),
        Relation("S", ("X", "Y"), [(2, 3), (3, 1), (1, 2), (3, 2)]),
    ], cache_results=False, **kwargs)


def _assert_transparent(engine, query, mode="generic", **kwargs):
    python = list(engine.execute(query, mode=mode, **kwargs).tuples)
    columnar = list(engine.execute(query, mode=mode, backend="columnar",
                                   **kwargs).tuples)
    assert columnar == python


class TestPlanTimeFallback:
    def test_cross_atom_comparison_selection(self):
        engine = _engine()
        query = "Q(A,C) :- R(A,B), S(B,C), A < C"
        explanation = engine.explain(query, backend="columnar")
        assert explanation.backend == "python"
        assert "cross-atom" in explanation.backend_fallback
        _assert_transparent(engine, query)

    def test_unsupported_aggregate_kind(self):
        engine = _engine()
        query = "Q(A, AVG(C) AS a) :- R(A,B), S(B,C)"
        explanation = engine.explain(query, backend="columnar")
        assert explanation.backend == "python"
        assert "avg" in explanation.backend_fallback.lower()
        _assert_transparent(engine, query)

    def test_anyk_ranked_mode(self):
        engine = _engine()
        query = "Q(A,B) :- R(A,B) ORDER BY B DESC LIMIT 3"
        explanation = engine.explain(query, backend="columnar",
                                     ranked_mode="anyk")
        assert explanation.backend == "python"
        assert "any-k" in explanation.backend_fallback
        python = list(engine.execute(query, ranked_mode="anyk").tuples)
        columnar = list(engine.execute(query, ranked_mode="anyk",
                                       backend="columnar").tuples)
        assert columnar == python

    def test_strategy_without_columnar_implementation(self):
        engine = _engine()
        query = "Q(A,B,C) :- R(A,B), S(B,C)"
        for mode in ("naive", "binary", "yannakakis"):
            explanation = engine.explain(query, mode=mode,
                                         backend="columnar")
            assert explanation.backend == "python"
            assert "no columnar implementation" in \
                explanation.backend_fallback
            python = list(engine.execute(query, mode=mode).tuples)
            columnar = list(engine.execute(query, mode=mode,
                                           backend="columnar").tuples)
            assert columnar == python

    def test_auto_backend_never_errors_on_unsupported(self):
        engine = _engine()
        query = "Q(A,C) :- R(A,B), S(B,C), A < C"
        explanation = engine.explain(query, backend="auto")
        assert explanation.backend == "python"
        # Both envelopes are still priced (columnar as infeasible).
        assert explanation.costs["backend[columnar]"] == float("inf")
        assert explanation.costs["backend[python]"] < float("inf")


class TestRunTimeFallback:
    def test_mixed_value_domain_degrades_to_python(self):
        # R joins ints, U holds strings: registering both in the shared
        # dictionary is un-orderable, so the columnar run falls back at
        # layout-build time — transparently.
        engine = Engine(relations=[
            Relation("R", ("X", "Y"), [(1, 2), (2, 3)]),
            Relation("U", ("X", "Y"), [("a", "b")]),
        ], cache_results=False)
        # Register the string relation's values first.
        _assert_transparent(engine, "Q(A,B) :- U(A,B)")
        _assert_transparent(engine, "Q(A,B,C) :- R(A,B), R(B,C)")

    def test_ordered_limit_keeps_the_python_drain_order(self):
        # The session leaves a columnar drain's ordering to the executor,
        # so the fallback must rank the oracle's rows itself.
        engine = Engine(relations=[
            Relation("R", ("X", "Y"), [(1, 2), (1, 3), (2, 3), (2, 4),
                                       (3, 1), (4, 1), (4, 2)]),
            Relation("U", ("X", "Y"), [("a", "b")]),
        ], cache_results=False)
        _assert_transparent(engine, "Q(A,B) :- U(A,B)")
        for query in ("Q(A,B,C) :- R(A,B), R(B,C) ORDER BY C DESC, A LIMIT 4",
                      "Q(A,C) :- R(A,B), R(B,C) ORDER BY C, A DESC"):
            explanation = engine.explain(query, mode="generic",
                                         backend="columnar")
            assert explanation.backend == "columnar"
            python = list(engine.stream(query, mode="generic",
                                        ranked_mode="drain"))
            assert python != sorted(python)
            for limit in (None, 2):
                columnar = list(engine.stream(query, mode="generic",
                                              limit=limit,
                                              backend="columnar"))
                assert columnar == python[:limit]

    def test_float_sum_degrades_exactly(self):
        engine = Engine(relations=[
            Relation("R", ("X", "Y"), [(1, 0.5), (1, 0.25), (2, 1.5)]),
        ], cache_results=False)
        query = "Q(A, SUM(B) AS s) :- R(A,B)"
        # Plan-time sees a supported SUM; the int64-exactness guard only
        # trips at run time once the float domain is registered.
        explanation = engine.explain(query, backend="columnar")
        assert explanation.backend == "columnar"
        _assert_transparent(engine, query)

    def test_huge_int_sum_degrades_exactly(self):
        big = 2**40
        engine = Engine(relations=[
            Relation("R", ("X", "Y"), [(1, big), (1, big + 1), (2, 7)]),
        ], cache_results=False)
        _assert_transparent(engine, "Q(A, SUM(B) AS s) :- R(A,B)")


class TestWithoutNumpy:
    def test_unsupported_reason_without_numpy(self, monkeypatch):
        # When NumPy is missing the dispatcher prices columnar as
        # unsupported instead of raising ImportError.
        import repro.columnar as columnar
        monkeypatch.setattr(columnar, "HAS_NUMPY", False)
        reason = columnar.unsupported_reason()
        assert reason is not None and "NumPy" in reason

    def test_forced_columnar_without_numpy_falls_back(self, monkeypatch):
        import repro.columnar as columnar
        monkeypatch.setattr(columnar, "HAS_NUMPY", False)
        engine = _engine()
        query = "Q(A,B,C) :- R(A,B), S(B,C)"
        explanation = engine.explain(query, backend="columnar")
        assert explanation.backend == "python"
        assert "NumPy" in explanation.backend_fallback
        _assert_transparent(engine, query)
