"""In-recursion aggregation vs drain-and-fold on a skewed acyclic group-by.

The FAQ-style execution mode folds eliminated variables inside the WCOJ
recursion: for the acyclic group-by ``Q(A, COUNT(*)) :- R(A,B), S(B,C)``
every group binding's tail collapses to a semiring value, and the
separator-keyed memo computes each hub's fan-out subtree once.  The
drain-and-fold baseline enumerates the full join and folds its output —
join-linear, so the skewed hub's subtree is re-enumerated for *every*
group that reaches it.

The instance is deliberately skewed: every A sees every B, and one hub B
carries almost all of S's fan-out.  In-recursion aggregation pays for the
hub subtree once; drain-and-fold pays for it once per group, which is the
asymptotic gap this benchmark gates as the ratio of join search nodes.
All four executors are also checked for identical grouped results.

Run: ``python benchmarks/bench_aggregate_pushdown.py [--quick]``
(flags, table and exit code are ``harness.py``'s).
"""

from __future__ import annotations

from harness import Gate, Measurement, main, timed

from repro.engine import Engine
from repro.joins.instrumentation import OperationCounter
from repro.relational.database import Database
from repro.relational.relation import Relation

QUERY = "Q(A, COUNT(*), SUM(C) AS total) :- R(A,B), S(B,C)"


def skewed_group_by_instance(groups: int, hubs: int = 30,
                             hub_fanout: int = 200) -> Database:
    """Every A joins every B; hub B=0 holds almost all of S's fan-out."""
    r = Relation("R", ("a", "b"),
                 [(a, b) for a in range(groups) for b in range(hubs)])
    s_rows = [(0, c) for c in range(hub_fanout)]
    s_rows += [(b, c) for b in range(1, hubs) for c in range(2)]
    s = Relation("S", ("b", "c"), s_rows)
    return Database([r, s])


def measure(groups: int) -> Measurement:
    """Search nodes of drain-and-fold over in-recursion; asserts agreement."""
    database = skewed_group_by_instance(groups)
    engine = Engine(database=database, cache_results=False)

    recursion_counter = OperationCounter()
    recursion, recursion_ms = timed(
        engine.execute, QUERY, mode="generic", aggregate_mode="recursion",
        counter=recursion_counter)
    fold_counter = OperationCounter()
    fold, fold_ms = timed(
        engine.execute, QUERY, mode="generic", aggregate_mode="fold",
        counter=fold_counter)

    expected = sorted(fold.tuples)
    if sorted(recursion.tuples) != expected:
        raise AssertionError("in-recursion and fold answers disagree")
    for mode, kwargs in (("leapfrog", {"aggregate_mode": "recursion"}),
                         ("yannakakis", {"aggregate_mode": "recursion"}),
                         ("naive", {})):
        other = engine.execute(QUERY, mode=mode, **kwargs)
        if sorted(other.tuples) != expected:
            raise AssertionError(f"{mode} disagrees on {QUERY}")

    return Measurement(fold_counter.search_nodes,
                       recursion_counter.search_nodes,
                       ms={"recursion": recursion_ms, "fold": fold_ms})


GATE = Gate(
    name="aggregate_pushdown",
    measure=measure,
    numerator="fold", denominator="recursion", quantity="search nodes",
    target=10.0,
    cases=({"groups": 40}, {"groups": 80}, {"groups": 160}),
    quick=({"groups": 30}, {"groups": 60}),
)

if __name__ == "__main__":
    raise SystemExit(main(GATE))
