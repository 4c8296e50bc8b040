"""Disabled-tracer overhead on the triangle workload (CI smoke gate).

Observability must be free when it is off.  Sessions built without a
tracer share the :data:`~repro.obs.trace.NULL_TRACER`: the null span is
a shared no-op; only attribute construction is guarded (``if
tracer.enabled``) — so the whole tracing layer should cost one no-op
context-manager entry per lifecycle stage.  This benchmark measures
exactly that configuration (the engine default: null tracer, metrics
registry on, no operation counting) against a no-observability baseline
(``metrics=False``) on repeated skewed-triangle executions, and gates
the median ratio — the one gate whose unit is a clock, so the harness
re-measures a failing case before it fails the run.

The *enabled* configuration — live tracer plus a detail operation
counter — is measured and printed for the record but not gated:
counting every trie seek in pure Python is real work (tens of percent),
which is exactly why it is opt-in.

Run: ``python benchmarks/bench_trace_overhead.py [--quick]``
(flags, table and exit code are ``harness.py``'s).
"""

from __future__ import annotations

import statistics

from harness import Gate, Measurement, main, timed

from repro.datagen.worstcase import triangle_skew_instance
from repro.engine import Engine
from repro.obs import Tracer


def measure(size: int, rounds: int) -> Measurement:
    """Median per-query ms of the disabled configuration over the baseline.

    The three engines share one database (and each keeps its own warm
    index registry), result caching is off so every round re-executes
    the join, and rounds interleave the configurations so drift hits
    them equally.
    """
    query, database = triangle_skew_instance(size)
    tracer = Tracer()
    engines = {
        "baseline": Engine(database=database, cache_results=False,
                           metrics=False),
        "disabled": Engine(database=database, cache_results=False),
        "enabled": Engine(database=database, cache_results=False,
                          tracer=tracer, collect_operations=True),
    }
    # One untimed execution each: warms plans and indexes.
    if len({len(engine.execute(query)) for engine in engines.values()}) != 1:
        raise AssertionError("configurations disagree on the result")

    samples: dict[str, list[float]] = {name: [] for name in engines}
    for _ in range(rounds):
        tracer.reset()  # spans from prior rounds are not this round's cost
        for name, engine in engines.items():
            samples[name].append(timed(engine.execute, query)[1])
    medians = {name: statistics.median(times)
               for name, times in samples.items()}
    return Measurement(medians["disabled"], medians["baseline"],
                       ms={"enabled": medians["enabled"]})


GATE = Gate(
    name="trace_overhead",
    measure=measure,
    numerator="disabled", denominator="baseline",
    quantity="median per-query ms", unit="ms",
    target=1.05, direction="<=",
    cases=({"size": 150, "rounds": 15}, {"size": 300, "rounds": 15}),
    quick=({"size": 120, "rounds": 9},),
)

if __name__ == "__main__":
    raise SystemExit(main(GATE))
