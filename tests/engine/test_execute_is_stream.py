"""``execute`` is ``stream``, collected: the same rows in the same order.

Every distinct query of the end-to-end benchmark's six workloads, at
their ``--quick`` sizes and seed 0, on both backends: the relation
``execute`` returns must iterate exactly the rows ``stream`` yields, in
the order it yields them, and as many as its ``len`` — on a cold run,
when served from the result cache, and after a delta on a relation the
query reads.  The workloads module is imported read-only, for its
generators and op lists.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.engine.session import Engine
from repro.query.builder import Query
from repro.relational.database import Database

pytest.importorskip("numpy")

E2E_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
if str(E2E_DIR) not in sys.path:
    sys.path.insert(0, str(E2E_DIR))

import workloads  # noqa: E402

WORKLOADS = ("warm_cyclic_python", "warm_cyclic_columnar",
             "acyclic_aggregate", "point_lookups", "cold_sessions",
             "delta_stream")


def _queries(workload) -> list[str]:
    """The distinct query texts of a workload's ops, its first round's
    included (point lookups take their constants from it), and of its
    standing queries."""
    texts = []
    for op in workload.ops + workload.round(0):
        if op.kind == "session":
            texts.extend(query for _name, query in op.script)
        elif op.kind != "delta":
            texts.append(op.query)
    texts.extend(query for _name, query in getattr(workload, "VIEWS", ()))
    return list(dict.fromkeys(texts))


def _agrees(engine: Engine, query: str, backend: str) -> None:
    result = engine.execute(query, backend=backend)
    rows = list(result)
    assert rows == list(engine.stream(query, backend=backend)), query
    assert len(rows) == len(result), query
    assert all(type(row) is tuple for row in rows), query


@pytest.mark.parametrize("backend", ["python", "columnar"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_execute_iterates_the_stream(name: str, backend: str):
    workload = workloads.build(name, seed=0, quick=True)
    for query in _queries(workload):
        # A catalog of its own: the delta below must not reach the next
        # query's instance.
        engine = Engine(database=Database(list(workload.database)),
                        cache_results=True)
        _agrees(engine, query, backend)                   # cold
        hits = engine.stats.result_hits
        _agrees(engine, query, backend)                   # cache hit
        assert engine.stats.result_hits == hits + 1, query
        relation = Query.coerce(query).core.atoms[0].relation
        first = min(engine.database.get(relation).tuples)
        engine.apply_delta(relation, deletes=[first])
        _agrees(engine, query, backend)                   # after a delta


def test_an_isomorphic_cache_hit_keeps_the_order():
    # The second text is the first with its variables renamed: it is
    # served the first one's cached result, renamed, in the same order.
    engine = Engine(database=Database(list(workloads.build(
        "acyclic_aggregate", seed=0, quick=True).database)))
    first = engine.execute("Q(A,B,C) :- Ru(A,B), Su(B,C) "
                           "ORDER BY C DESC, A LIMIT 9")
    second = engine.execute("P(X,Y,Z) :- Ru(X,Y), Su(Y,Z) "
                            "ORDER BY Z DESC, X LIMIT 9")
    assert engine.stats.result_hits == 1
    assert second.attributes == ("X", "Y", "Z")
    assert list(second) == list(first) == list(engine.stream(
        "P(X,Y,Z) :- Ru(X,Y), Su(Y,Z) ORDER BY Z DESC, X LIMIT 9"))
