"""The columnar kernel's charged work, pinned per operation kind.

The first three counts below were taken from the kernel as it stood
before its seek became a composite-key ``np.searchsorted``; the pinned
one after pinned levels became seeks and component folds memoized.  How
a seek is computed is an implementation detail; what the kernel charges
is the survey's cost model
(``counter-honesty``), so a rewrite that changes any of these totals has
changed the work it claims to do and must say so here.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.executors import _trie_requests
from repro.engine.session import Engine
from repro.joins.instrumentation import OperationCounter
from repro.query.builder import Query
from repro.relational.relation import Relation

pytest.importorskip("numpy")

from repro.columnar.join import columnar_rows  # noqa: E402

KINDS = ("search_nodes", "intersection_steps", "seeks", "tuples_emitted")


def _instance() -> Engine:
    rng = random.Random(7)
    relations = [
        Relation(name, ("X", "Y"),
                 sorted({(rng.randrange(8), rng.randrange(8))
                         for _ in range(40)}))
        for name in "RSTU"
    ]
    return Engine(relations=relations, cache_results=False)


def _charged(query: str, order: tuple[str, ...]) -> tuple[int, dict]:
    engine = _instance()
    spec = Query.coerce(query)
    layouts = engine.registry.columnar_layouts(
        _trie_requests(spec.core, engine.database, order))
    counter = OperationCounter(detail=True)
    aggregates = spec.aggregates or None
    rows = columnar_rows(spec.core, order, layouts,
                         engine.registry.columnar_store,
                         selections=spec.all_selections,
                         head=spec.head_vars, aggregates=aggregates,
                         counter=counter)
    python = engine.execute(query, mode="generic")
    assert sorted(rows) == python.sorted_tuples()
    return len(rows), {kind: getattr(counter, kind) for kind in KINDS}


@pytest.mark.parametrize("query, order, expected_rows, expected", [
    ("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", ("A", "B", "C"), 57,
     {"search_nodes": 38, "intersection_steps": 146, "seeks": 126,
      "tuples_emitted": 57}),
    ("Q(A, COUNT(*) AS n) :- R(A,B), S(B,C), T(A,C)", ("A", "B", "C"), 8,
     {"search_nodes": 38, "intersection_steps": 203, "seeks": 126,
      "tuples_emitted": 8}),
    ("Q(A) :- R(A,B), S(A,C), U(A,D)", ("A", "B", "C", "D"), 8,
     {"search_nodes": 25, "intersection_steps": 221, "seeks": 16,
      "tuples_emitted": 8}),
    # The pinned A is one seek per atom, and each existential arm, keyed
    # on A alone, is searched once for all four B rows.
    ("Q(B) :- R(A,B), S(A,C), U(A,D), A == 3", ("A", "B", "C", "D"), 4,
     {"search_nodes": 4, "intersection_steps": 32, "seeks": 3,
      "tuples_emitted": 4}),
], ids=["triangle", "grouped_triangle", "star_projection",
        "pinned_star_projection"])
def test_columnar_charged_work_is_pinned(query, order, expected_rows,
                                         expected):
    rows, charged = _charged(query, order)
    assert rows == expected_rows
    assert charged == expected
