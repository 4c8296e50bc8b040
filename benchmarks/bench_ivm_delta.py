"""Incremental view maintenance vs re-execution on single-tuple deltas.

A standing star-schema aggregate view ``Q(A, SUM(B1), COUNT(*)) :-
R1(A,B1), R2(A,B2), R3(A,B3)`` is subscribed once; then a stream of
single-tuple inserts and deletes lands on the arm relations.  The
subscription repairs its stored join-tree messages along one root path per
delta — work proportional to the touched entries — while a cold
re-execution rescans every relation.  This benchmark gates the ratio of
executor operation counts between the two and checks after every delta
that the maintained rows are bit-identical to a fresh uncached execution
through the engine's dispatch path.

Run: ``python benchmarks/bench_ivm_delta.py [--quick]``
(flags, table and exit code are ``harness.py``'s).
"""

from __future__ import annotations

import random

from harness import Gate, Measurement, main, timed

from repro.engine import Engine
from repro.joins.instrumentation import OperationCounter
from repro.relational.database import Database
from repro.relational.relation import Relation

QUERY = ("Q(A, SUM(B1) AS total, COUNT(*) AS n) :- "
         "R1(A,B1), R2(A,B2), R3(A,B3)")


def star_instance(groups: int, fanout: int = 8) -> Database:
    """Three arms around a shared group key A, ``fanout`` rows per group.

    Group keys are spread so relation sizes sit mid power-of-two bucket:
    single-tuple deltas must exercise the incremental path, not trip the
    statistics-drift re-planner.
    """
    rng = random.Random(groups)
    relations = []
    for i, column in enumerate(("b1", "b2", "b3")):
        rows = set()
        for a in range(groups):
            while len(rows) < (a + 1) * fanout:
                rows.add((a, rng.randrange(10 * fanout * groups)))
        relations.append(Relation(f"R{i + 1}", ("a", column), rows))
    return Database(relations)


def measure(groups: int, deltas: int = 12) -> Measurement:
    """Operations of re-execution over incremental; asserts agreement.

    Streams ``deltas`` alternating single-tuple inserts and deletes over
    the three arm relations; after each, compares the subscription's rows
    against a fresh counted execution (counters bypass the result cache,
    so the reference pays full price every time, as a re-execution
    maintainer would).
    """
    database = star_instance(groups)
    engine = Engine(database=database)
    reference = Engine(database=database)  # separate session: cold costs
    sub = engine.subscribe(QUERY)
    if not sub.incremental:
        raise AssertionError(
            f"star view fell back to refresh: {sub.fallback_reason}")

    rng = random.Random(groups + 1)
    incremental_ops = reexec_ops = 0
    incremental_ms = reexec_ms = 0.0
    for step in range(deltas):
        name = f"R{step % 3 + 1}"
        if step % 2 == 0:
            rows = {(rng.randrange(groups), -1 - step)}
            applied = engine.apply_delta(name, inserts=rows)
        else:
            victim = next(iter(engine.database.get(name).tuples))
            applied = engine.apply_delta(name, deletes={victim})
        if not applied.changed:
            raise AssertionError("benchmark delta was a no-op")
        maint = sub.last_maintenance
        if maint.kind != "incremental":
            raise AssertionError(
                f"delta {step} fell back to refresh: {maint.reason}")
        incremental_ops += maint.operations
        incremental_ms += maint.seconds * 1000.0

        counter = OperationCounter()
        cold, cold_ms = timed(reference.execute, QUERY, counter=counter)
        reexec_ms += cold_ms
        reexec_ops += counter.total()
        if sorted(cold.tuples) != sub.rows():
            raise AssertionError(
                f"maintained rows diverged from re-execution at delta {step}")

    return Measurement(reexec_ops, incremental_ops,
                       ms={"incremental": incremental_ms,
                           "re-execution": reexec_ms})


GATE = Gate(
    name="ivm_delta",
    measure=measure,
    numerator="re-execution", denominator="incremental",
    quantity="operations",
    target=10.0,
    cases=({"groups": 40}, {"groups": 80}, {"groups": 160}),
    quick=({"groups": 30}, {"groups": 60}),
)

if __name__ == "__main__":
    raise SystemExit(main(GATE))
