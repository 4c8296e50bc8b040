"""Disabled-tracer overhead on the triangle workload (CI smoke gate).

Observability must be free when it is off.  Sessions built without a
tracer share the :data:`~repro.obs.trace.NULL_TRACER`: the null span is
a shared no-op; only attribute construction is guarded (``if
tracer.enabled``) — so the whole tracing layer should cost one no-op
context-manager entry per lifecycle stage.  This benchmark measures
exactly that configuration (the engine default: null tracer, metrics
registry on, no operation counting) against a no-observability baseline
(``metrics=False``) on repeated skewed-triangle executions, and gates
the median ratio.

The *enabled* configuration — live tracer plus a detail operation
counter — is measured and printed for the record but not gated:
counting every trie seek in pure Python is real work (tens of percent),
which is exactly why it is opt-in.

Run standalone (exit code gates on the ratio)::

    python benchmarks/bench_trace_overhead.py [--quick]

or through pytest::

    python -m pytest benchmarks/bench_trace_overhead.py -q
"""

from __future__ import annotations

import statistics
import sys
import time

import pytest

try:
    from repro.engine import Engine
except ImportError:  # running standalone from a checkout without install
    import os
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from repro.engine import Engine

from repro.datagen.worstcase import triangle_skew_instance
from repro.obs import Tracer

#: Maximum acceptable disabled-tracer median slowdown (CI gate).
TARGET_RATIO = 1.05

#: Noisy-runner tolerance: the gate retries before failing.
ATTEMPTS = 3


def measure(size: int, rounds: int) -> dict[str, float]:
    """Median per-query milliseconds for each observability configuration.

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
    expected = None
    for engine in engines.values():  # warm plans and indexes
        result = engine.execute(query)
        expected = len(result) if expected is None else expected
        if len(result) != expected:
            raise AssertionError("configurations disagree on the result")

    samples: dict[str, list[float]] = {name: [] for name in engines}
    for _ in range(rounds):
        tracer.reset()  # spans from prior rounds are not this round's cost
        for name, engine in engines.items():
            started = time.perf_counter()
            engine.execute(query)
            samples[name].append((time.perf_counter() - started) * 1000.0)
    return {name: statistics.median(times)
            for name, times in samples.items()}


def disabled_ratio(size: int, rounds: int) -> float:
    medians = measure(size, rounds)
    return medians["disabled"] / medians["baseline"]


@pytest.mark.experiment("trace_overhead")
def test_disabled_tracer_overhead_is_negligible():
    """A null tracer + idle metrics must stay within 5% of no observability."""
    ratios = []
    for _ in range(ATTEMPTS):
        ratio = disabled_ratio(size=150, rounds=9)
        if ratio <= TARGET_RATIO:
            return
        ratios.append(ratio)
    raise AssertionError(
        f"disabled-tracer ratio exceeded {TARGET_RATIO} in "
        f"{ATTEMPTS} attempts: {[f'{r:.3f}' for r in ratios]}"
    )


def run(sizes=(150, 300), rounds: int = 15) -> bool:
    print("observability overhead — skewed triangle, result cache off, "
          "median per-query ms")
    print(f"{'size':>6s} {'baseline':>10s} {'disabled':>10s} "
          f"{'enabled':>10s} {'off ratio':>10s} {'on ratio':>9s}")
    ok = True
    for size in sizes:
        for attempt in range(ATTEMPTS):
            medians = measure(size, rounds)
            off_ratio = medians["disabled"] / medians["baseline"]
            if off_ratio <= TARGET_RATIO or attempt == ATTEMPTS - 1:
                break
        ok = ok and off_ratio <= TARGET_RATIO
        on_ratio = medians["enabled"] / medians["baseline"]
        print(f"{size:6d} {medians['baseline']:10.3f} "
              f"{medians['disabled']:10.3f} {medians['enabled']:10.3f} "
              f"{off_ratio:9.3f}x {on_ratio:8.3f}x")
    print(f"gate: disabled-tracer ratio <= {TARGET_RATIO} "
          f"(enabled tracing+counting is opt-in and reported only)")
    return ok


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv
    return 0 if run(sizes=(120,) if quick else (150, 300),
                    rounds=9 if quick else 15) else 1


if __name__ == "__main__":
    sys.exit(main())
