"""Columnar drain plans rank dictionary codes: same rows, same order.

A non-aggregate ``ORDER BY`` plan on the columnar backend sorts the
joined code columns (one ``np.lexsort`` over the direction-adjusted keys,
then the full row) and decodes only its top-k; the session does not sort
again.  The reference is the python backend's forced
``ranked_mode="drain"``: the join drained into ``sort_rows``.  Every
case below must stream that run's rows in that run's order, and
``execute`` must return the same rows in the same order, on both WCOJ
strategies.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.engine.session import Engine
from repro.relational.relation import Relation

pytest.importorskip("numpy")

#: Per shape: the query body, its head, the projection form the plan
#: must take (``None`` for full rows) and ORDER BY key lists.  The key
#: columns have small domains, so the full-row tie-break decides most
#: positions.
SHAPES = {
    "full": ("R(A,B), S(B,C)", "A,B,C", None,
             (["B"], ["B DESC"], ["B DESC", "A"], ["C", "B DESC"])),
    "existential": ("R(A,B), S(B,C)", "A,B", "existential tail after",
                    (["B"], ["B DESC"], ["B DESC", "A DESC"])),
    "seen_set": ("R({one},B), S(B,C), T(C,D)", "C,D",
                 "head deduplicated by a seen-set",
                 (["D"], ["D DESC"], ["D DESC", "C"])),
}

LIMITS = (None, 0, 1, 7, 100_000)


def _relations(encode) -> list[Relation]:
    rng = random.Random(1)
    r_rows = ([(1, 2), (1, 3), (2, 4), (3, 5)]
              + [(a, b) for a in range(4, 30) for b in range(3)])
    s_rows = {(rng.randrange(8), rng.randrange(60)) for _ in range(300)}
    t_rows = {(rng.randrange(60), rng.randrange(4)) for _ in range(100)}
    return [Relation(name, ("x", "y"),
                     sorted((encode(a), encode(b)) for a, b in rows))
            for name, rows in (("R", r_rows), ("S", s_rows), ("T", t_rows))]


#: Value domains: ints, and strings whose order is not the ints' order
#: ("v10" < "v2"), so only the dictionary's sorted codes rank them right.
DOMAINS = {"int": (lambda v: v, "1"), "str": (lambda v: f"v{v}", "'v1'")}


@pytest.fixture(scope="module", params=sorted(DOMAINS))
def domain(request):
    encode, one = DOMAINS[request.param]
    return Engine(relations=_relations(encode), cache_results=False), one


def _query(shape: str, keys, limit, one: str) -> str:
    body, head, _projection, _keys = SHAPES[shape]
    text = f"Q({head}) :- {body.format(one=one)} ORDER BY {', '.join(keys)}"
    return text if limit is None else f"{text} LIMIT {limit}"


def _python_drain(engine: Engine, query: str) -> list[tuple]:
    return list(engine.stream(query, mode="generic", ranked_mode="drain"))


def _columnar_rows(engine: Engine, query: str, mode: str = "generic",
                   limit: int | None = None) -> list[tuple]:
    """The columnar stream, after checking ``execute`` iterates it."""
    rows = list(engine.stream(query, mode=mode, limit=limit,
                              backend="columnar"))
    assert list(engine.execute(query, mode=mode, limit=limit,
                               backend="columnar")) == rows
    return rows


CASES = [(shape, keys, limit) for shape, (_b, _h, _p, key_lists)
         in SHAPES.items() for keys in key_lists for limit in LIMITS]


@pytest.mark.parametrize("shape,keys,limit", CASES)
def test_columnar_drain_equals_python_drain(domain, shape, keys, limit):
    engine, one = domain
    query = _query(shape, keys, limit, one)
    expected = _python_drain(engine, query)
    if limit is None:
        assert len(expected) > 7  # the grid's LIMITs all cut something
    for mode in ("generic", "leapfrog"):
        explanation = engine.explain(query, mode=mode, backend="columnar")
        assert explanation.backend == "columnar"
        projection = SHAPES[shape][2]
        if projection is None:
            assert explanation.projection is None
        else:
            assert explanation.projection.startswith(projection)
        assert _columnar_rows(engine, query, mode) == expected


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_per_call_limit_below_the_query_limit(domain, shape):
    engine, one = domain
    keys = SHAPES[shape][3][-1]
    query = _query(shape, keys, 7, one)
    expected = _python_drain(engine, query)
    for limit in (0, 1, 3):
        assert _columnar_rows(engine, query, limit=limit) == expected[:limit]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_stream_closed_after_its_first_row(domain, shape):
    engine, one = domain
    keys = SHAPES[shape][3][-1]
    for limit in (None, 7):
        query = _query(shape, keys, limit, one)
        expected = _python_drain(engine, query)
        stream = engine.stream(query, mode="generic", backend="columnar")
        assert next(stream) == expected[0]
        stream.close()
        assert list(stream) == []


@pytest.mark.parametrize("limit", LIMITS)
def test_empty_join(limit):
    engine = Engine(relations=[Relation("R", ("x", "y"), [(1, 2), (3, 4)]),
                               Relation("S", ("x", "y"), [(5, 6), (7, 8)])],
                    cache_results=False)
    for head, keys in (("A,B,C", "B DESC, A"), ("A,B", "B")):
        query = f"Q({head}) :- R(A,B), S(B,C) ORDER BY {keys}"
        if limit is not None:
            query += f" LIMIT {limit}"
        assert engine.explain(query, mode="generic",
                              backend="columnar").backend == "columnar"
        assert _columnar_rows(engine, query) == []


def test_every_key_direction_combination(domain):
    """All 2^3 directions over the full row's columns, one LIMIT."""
    engine, one = domain
    for directions in itertools.product(("", " DESC"), repeat=3):
        keys = [f"{column}{direction}" for column, direction
                in zip("BCA", directions)]
        query = _query("full", keys, 25, one)
        assert _columnar_rows(engine, query) == _python_drain(engine, query)


class TestExplainAndMetrics:
    QUERY = "Q(A,B,C) :- R(A,B), S(B,C) ORDER BY B DESC, A LIMIT 3"
    COLUMNAR_LINE = ("ranked mode:    drain (drain-and-sort: enumerate the "
                     "join, sort its dictionary codes, decode the top-k)")
    PYTHON_LINE = ("ranked mode:    drain (drain-and-heap: enumerate the "
                   "join, heap-select the top-k)")

    @staticmethod
    def _ranked_line(explanation) -> str:
        return next(line for line in explanation.render().splitlines()
                    if line.startswith("ranked mode:"))

    def test_columnar_drain_names_the_code_space_sort(self, domain):
        engine, _one = domain
        explanation = engine.explain(self.QUERY, mode="generic",
                                     backend="columnar")
        assert self._ranked_line(explanation) == self.COLUMNAR_LINE

    def test_python_drain_and_aggregates_keep_the_heap(self, domain):
        engine, _one = domain
        python = engine.explain(self.QUERY, mode="generic",
                                ranked_mode="drain")
        assert python.backend == "python"
        assert self._ranked_line(python) == self.PYTHON_LINE
        grouped = engine.explain(
            "Q(B, COUNT(*) AS n) :- R(A,B), S(B,C) ORDER BY n DESC LIMIT 2",
            mode="generic", backend="columnar")
        assert grouped.backend == "columnar"
        assert self._ranked_line(grouped) == self.PYTHON_LINE

    def test_anyk_delay_histograms_see_no_drain(self):
        engine = Engine(relations=_relations(lambda v: v))
        rows = list(engine.stream(self.QUERY, mode="generic",
                                  backend="columnar"))
        assert len(rows) == 3
        for name in ("repro_anyk_first_row_seconds",
                     "repro_anyk_delay_seconds"):
            assert engine.metrics.get(name).snapshot()["count"] == 0
