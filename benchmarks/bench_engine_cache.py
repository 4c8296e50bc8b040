"""Warm-vs-cold engine sessions on repeated workloads.

The point of the `repro.engine` subsystem is amortization: a long-lived
:class:`~repro.engine.Engine` session keeps plans, indexes and results
across queries, while one-shot execution pays for parsing, the AGM LP,
variable ordering and index builds on every call.  This benchmark runs
the canonical repeated workloads (triangle on skewed and AGM-tight
instances, Loomis–Whitney LW(4)) both ways.

The gate is the *deterministic* cache accounting: ``repeats`` executions
in one session must plan once and join once, so all ``2 * (repeats - 1)``
repeat lookups (plan and result) are served from the caches — the ratio
served / repeat lookups must be 1.  The cold and warm wall-clock totals
are recorded beside it for trend tracking and never gate.

Run: ``python benchmarks/bench_engine_cache.py [--quick]``
(flags, table and exit code are ``harness.py``'s).
"""

from __future__ import annotations

from harness import Gate, Measurement, main, timed

from repro.datagen.loomis_whitney import loomis_whitney_random_instance
from repro.datagen.worstcase import (
    triangle_agm_tight_instance,
    triangle_skew_instance,
)
from repro.engine import Engine

#: scale -> (query, database) of each repeated-query workload.
WORKLOADS = {
    "triangle-skew": triangle_skew_instance,
    "triangle-tight": triangle_agm_tight_instance,
    "lw4": lambda scale: loomis_whitney_random_instance(4, scale, seed=7),
}


def measure(workload: str, scale: int, repeats: int) -> Measurement:
    """Cache-served lookups over repeat lookups for ``repeats`` runs.

    Cold runs a fresh engine per repetition (every plan, index and result
    recomputed); warm reuses one session, so repetitions after the first
    are served from the caches.
    """
    query, database = WORKLOADS[workload](scale)
    session = Engine(database=database)

    def cold() -> None:
        for _ in range(repeats):
            Engine(database=database).execute(query)

    def warm() -> None:
        for _ in range(repeats):
            session.execute(query)

    _, cold_ms = timed(cold)
    _, warm_ms = timed(warm)
    stats = session.stats
    if stats.result_hits + stats.result_misses != repeats:
        raise AssertionError(f"{workload}: result hits + misses != {repeats}")
    served = (repeats - stats.plan_misses) + stats.result_hits
    return Measurement(
        served, 2 * (repeats - 1),
        ms={"cold": cold_ms, "warm": warm_ms},
        counts={"plan_misses": stats.plan_misses,
                "result_hits": stats.result_hits,
                "result_misses": stats.result_misses})


GATE = Gate(
    name="engine_cache",
    measure=measure,
    numerator="served", denominator="repeat lookups",
    quantity="plan + result cache hits",
    target=1.0,
    cases=tuple({"workload": name, "scale": 300, "repeats": 10}
                for name in WORKLOADS),
    quick=tuple({"workload": name, "scale": 120, "repeats": 5}
                for name in WORKLOADS),
)

if __name__ == "__main__":
    raise SystemExit(main(GATE))
