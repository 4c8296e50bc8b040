"""Selection pushdown vs post-hoc filtering on a skewed triangle workload.

The unified query surface lowers constants and comparisons into the join
itself: the WCOJ executors bind constant-pinned variables at the top of the
recursion and prune candidates the moment a predicate's variables are
bound.  The alternative — computing the full join and filtering the output
— pays for every pruned subtree.  On skewed instances (where a heavy hub
value makes the full join large) the gap is the whole point of pushdown.

This benchmark runs both strategies over the skew-triangle family with a
selective constant pin plus a comparison, and gates the ratio of join
search nodes.

Run: ``python benchmarks/bench_pushdown.py [--quick]``
(flags, table and exit code are ``harness.py``'s).
"""

from __future__ import annotations

from harness import Gate, Measurement, main, timed

from repro.datagen.worstcase import triangle_skew_instance
from repro.engine import Engine
from repro.joins.instrumentation import OperationCounter
from repro.query.builder import Query

FULL = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"
SELECTED = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C), A == 1, B < C"


def _post_hoc_rows(engine: Engine, counter: OperationCounter) -> list[tuple]:
    """The baseline: full join first, then filter the finished tuples."""
    spec = Query.coerce(SELECTED)
    variables = spec.core.variables
    full = engine.execute(FULL, mode="generic", counter=counter)
    return sorted(
        t for t in full.tuples
        if all(sel.evaluate(dict(zip(variables, t)))
               for sel in spec.all_selections)
    )


def measure(scale: int) -> Measurement:
    """Search nodes of post-hoc filtering over pushdown; asserts agreement."""
    _, database = triangle_skew_instance(scale)
    engine = Engine(database=database, cache_results=False)

    pushdown_counter = OperationCounter()
    pushed, pushdown_ms = timed(engine.execute, SELECTED, mode="generic",
                                counter=pushdown_counter)
    posthoc_counter = OperationCounter()
    filtered, posthoc_ms = timed(_post_hoc_rows, engine, posthoc_counter)

    if sorted(pushed.tuples) != filtered:
        raise AssertionError("pushdown and post-hoc answers disagree")
    return Measurement(posthoc_counter.search_nodes,
                       pushdown_counter.search_nodes,
                       ms={"pushdown": pushdown_ms, "post-hoc": posthoc_ms})


GATE = Gate(
    name="pushdown",
    measure=measure,
    numerator="post-hoc", denominator="pushdown", quantity="search nodes",
    target=2.0,
    cases=({"scale": 200}, {"scale": 400}, {"scale": 800}),
    quick=({"scale": 150}, {"scale": 300}),
)

if __name__ == "__main__":
    raise SystemExit(main(GATE))
