"""Any-k ranked enumeration vs drain-and-heap on an ordered top-k query.

``ORDER BY ... LIMIT k`` used to drain the whole join and heap-select:
top-1 paid the same as top-everything.  The any-k ranked mode enumerates
results in sort order straight out of the join — the ranking-semiring
best-suffix bounds plus a priority frontier (Tziavelis et al., "Optimal
Join Algorithms Meet Top-k") — so the work is the pops the frontier
makes plus k tie classes, not the join: a level's siblings are already
in key order, so a pop pushes only its next sibling, and a best-suffix
bound or existence check is computed for the candidates pushed, not for
every candidate of the level.

The instance is the skewed acyclic chain of the aggregate-pushdown
benchmark: every A sees every B and one hub B carries almost all of S's
fan-out, so the full-head join has many (B, A) prefixes that drain must
enumerate before its heap sees a single row, while any-k pays one
saturating existence check per pushed sort key.  The gap is recorded
as the ratio of join search nodes at k ∈ {1, 10, 100} and gated at k = 1.
The emitted ranked prefixes are asserted identical across both modes and
all any-k-capable executors; forced Yannakakis any-k's total operations
are recorded beside them, never gated.

Run: ``python benchmarks/bench_anyk_topk.py [--quick]``
(flags, table and exit code are ``harness.py``'s).
"""

from __future__ import annotations

from harness import Gate, Measurement, main, timed

from bench_aggregate_pushdown import skewed_group_by_instance

from repro.engine import Engine
from repro.joins.instrumentation import OperationCounter

QUERY = "Q(A, B, C) :- R(A,B), S(B,C) ORDER BY A, B"


def measure(groups: int, k: int) -> Measurement:
    """Search nodes of drain over any-k at LIMIT ``k``.

    Asserts that both modes emit the identical ranked prefix, on every
    executor that supports each mode.
    """
    database = skewed_group_by_instance(groups, hubs=40, hub_fanout=250)
    engine = Engine(database=database, cache_results=False)
    query = f"{QUERY} LIMIT {k}"

    def ranked(**kwargs) -> list[tuple]:
        return list(engine.stream(query, **kwargs))

    anyk_counter = OperationCounter()
    anyk, anyk_ms = timed(ranked, mode="generic", ranked_mode="anyk",
                          counter=anyk_counter)
    drain_counter = OperationCounter()
    drain, drain_ms = timed(ranked, mode="generic", ranked_mode="drain",
                            counter=drain_counter)

    if anyk != drain:
        raise AssertionError("any-k and drain ranked prefixes disagree")
    yannakakis_counter = OperationCounter()
    for mode, ranked_mode, counter in (
            ("leapfrog", "anyk", None),
            ("yannakakis", "anyk", yannakakis_counter),
            ("binary", "drain", None), ("naive", "drain", None)):
        if ranked(mode=mode, ranked_mode=ranked_mode,
                  counter=counter) != drain:
            raise AssertionError(
                f"{mode}/{ranked_mode} disagrees on {query}")

    return Measurement(drain_counter.search_nodes, anyk_counter.search_nodes,
                       ms={"anyk": anyk_ms, "drain": drain_ms},
                       counts={"yannakakis_ops": yannakakis_counter.total()})


GATE = Gate(
    name="anyk_topk",
    measure=measure,
    numerator="drain", denominator="anyk", quantity="search nodes",
    target=10.0,
    cases=tuple({"groups": groups, "k": k}
                for groups in (60, 120) for k in (1, 10, 100)),
    quick=tuple({"groups": 60, "k": k} for k in (1, 10, 100)),
    gated=lambda case: case["k"] == 1,
)

if __name__ == "__main__":
    raise SystemExit(main(GATE))
