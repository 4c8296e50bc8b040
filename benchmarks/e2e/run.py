"""The end-to-end ``Engine`` benchmark: one command, every metric.

Two ways in:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process (the form BENCHMARK.json's driver
    calls).  ``--trace 0`` measures the end-to-end metrics for S seconds
    of op time; ``--trace 1`` runs the fixed-length traced pass and
    reports the per-layer metrics.  The last line of stdout is one JSON
    object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``run.py --seed N [--traced] [--quick] [--check-repeat]``
    All six workloads, each in its own subprocess (so ``peak_rss_mb`` is
    the workload's own), one JSON document on stdout with every metric
    by name and unit.  Exits non-zero on any failed op.

The load generator is one process with one client thread in a closed
loop: the next op is sent when the previous one has returned and been
checked.  README.md has the glossary, the seed contract and the A/B
procedure.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
             "is missing")

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # String hashing is randomised per process, and with it the iteration
    # order of every set of variable or relation names the planner and the
    # index builders walk.  Left random, the same seed ran 8-11 % apart
    # from one process to the next (3-4 % with the hash seed pinned), so
    # the benchmark restarts itself once under a fixed one.  Byte-compile
    # first: the one run that compiled its imports itself, in a fresh
    # checkout, was 14 % slower than the runs after it.
    compileall.compile_dir(str(ROOT / "src"), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2)
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Set-up is repeated and the median reported.  The first repeat also
#: pays the process's lazy imports (scipy's LP solver, ~0.4 s), so of
#: three a single disturbed repeat would already move the median.
SETUP_REPEATS = 5

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Phase:
    """What one closed-loop phase saw."""

    samples: dict = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(list)))
    busy: float = 0.0           # seconds the client waited on ops
    rounds: list = field(default_factory=list)   # (ops done, op seconds)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def measure(workload, oracle: dict, seconds: float = 0.0, rounds: int = 0,
            first_round: int = 0, observe=None) -> Phase:
    """Whole rounds of ops until ``seconds`` of op time have passed (or
    exactly ``rounds`` rounds).  Every result is compared with its
    expected digest between ops, outside the timed intervals."""
    phase = Phase()
    for index in itertools.count(first_round):
        if (index - first_round >= rounds if rounds
                else phase.busy >= seconds):
            break
        done, began = 0, phase.busy
        for op in workload.round(index):
            phase.attempted += 1
            try:
                outcome = (observe(op, workload.perform) if observe
                           else workload.perform(op))
            except Exception as exc:  # a failed op is a measurement, not a crash
                phase.fail(f"{op.name}: raised {exc!r}")
                continue
            phase.busy += outcome.seconds
            done += 1
            for kind, name, took in outcome.samples:
                phase.samples[kind][name].append(took)
            wrong = [key for key, rows, ordered in outcome.results
                     if workloads.digest(rows, ordered)
                     != workload.expected(key, oracle)]
            if wrong:
                phase.fail(f"{op.name}: wrong result for {wrong}")
        phase.rounds.append((done, phase.busy - began))
        for message in workload.after_round(index):
            phase.fail(message)
    for message in workload.finish():
        phase.fail(message)
    return phase


def set_up(name: str, seed: int, quick: bool):
    """Generation + oracle digests + engine construction + warm-up."""
    start = time.perf_counter()
    workload = workloads.build(name, seed, quick)
    oracle = workload.oracle()
    workload.open()
    return workload, oracle, time.perf_counter() - start


def p50(by_type: dict) -> float:
    """The median over op types of each type's median, in ms.

    With the same number of samples per type this is the pooled median
    whenever that falls inside one type; when it falls *between* two
    types (an even number of them) the pooled value would hang on one
    type's slowest sample, and this does not.
    """
    return 1000.0 * statistics.median(
        statistics.median(v) for v in by_type.values())


def p90(by_type: dict) -> float:
    pooled = [s for v in by_type.values() for s in v]
    return 1000.0 * statistics.quantiles(pooled, n=10)[-1]


def throughput(rounds: list) -> float:
    """Ops per second of op time, from the median round.

    The total would do on a quiet machine; on a shared one a burst of
    interference slows a few rounds by a fifth, and the median round
    does not see it.
    """
    return statistics.median(done / took for done, took in rounds if took)


def end_to_end(phase: Phase, setup_s: float) -> dict[str, tuple]:
    """The end-to-end metrics.  A latency the workload has no op for
    (sessions outside ``cold_sessions``, ...) reads as its query latency:
    the contract wants every metric from every workload, never zero."""
    query = phase.samples["query"]

    def kind(name: str) -> dict:
        return phase.samples.get(name) or query

    return {
        "query_p50_ms": (p50(query), "ms"),
        "query_p90_ms": (p90(query), "ms"),
        "throughput_qps": (throughput(phase.rounds), "ops/s"),
        "session_p50_ms": (p50(kind("session")), "ms"),
        "first_row_p50_ms": (p50(kind("first_row")), "ms"),
        "delta_p50_ms": (p50(kind("delta")), "ms"),
        "delta_p90_ms": (p90(kind("delta")), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> dict:
    """Set up, measure and check one workload in this process."""
    took = []
    workload = oracle = None
    for _ in range(1 if quick or trace else SETUP_REPEATS):
        # Release the previous repeat first: two live copies of the
        # tries would double what every full collection has to walk.
        del workload, oracle
        workload, oracle, setup_s = set_up(name, seed, quick)
        took.append(setup_s)
    gc.collect()     # the oracle's session is garbage; the collector stays on
    if trace:
        rounds = 1 if quick else workload.traced_rounds
        path = HERE / "out" / f"trace-{name}-seed{seed}.ndjson"
        metrics, phase = layers.traced_pass(workload, measure, oracle,
                                            rounds, path)
    else:
        phase = measure(workload, oracle, seconds, rounds=2 if quick else 0)
        metrics = end_to_end(
            phase, statistics.median(took))
    for message in phase.failures[:10]:
        print(f"[{name}] FAILED {message}", file=sys.stderr)
    return {
        "samples": {kind: sum(map(len, by_type.values()))
                    for kind, by_type in phase.samples.items()},
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------
# All workloads
# ---------------------------------------------------------------------
def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def run_all(seed: int, seconds: float, traced: bool, quick: bool) -> dict:
    """Every workload; each in a subprocess unless ``quick``."""
    document = {"seed": seed, "seconds": seconds, "quick": quick,
                "environment": environment(), "workloads": {}}
    for name in WORKLOADS:
        merged: dict = {}
        for trace in (False, True) if traced else (False,):
            print(f"[{name}] trace={int(trace)} ...", file=sys.stderr)
            if quick:
                result = run_workload(name, seed, seconds, trace, quick=True)
            else:
                done = subprocess.run(
                    [sys.executable, __file__, "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(int(trace))],
                    stdout=subprocess.PIPE, text=True, timeout=600)
                if done.returncode != 0:
                    sys.exit(f"run.py: workload {name} exited "
                             f"{done.returncode} without a result")
                detail, result = map(json.loads,
                                     done.stdout.splitlines()[-2:])
                result.update(detail)
            if not merged:
                merged = result
            else:
                merged["correct"] &= result["correct"]
                merged["attempted"] += result["attempted"]
                merged["failed"] += result["failed"]
                merged["metrics"].update(result["metrics"])
        merged["failed_share"] = merged["failed"] / merged["attempted"]
        document["workloads"][name] = merged
    return document


def check_repeat(first: dict, second: dict) -> bool:
    """Print how far two sets on one seed are apart; True when some
    (metric, workload) differs by more than the metric's own bound."""
    exceeded = False
    for metric in SPEC["end_to_end"]:
        for name in WORKLOADS:
            a, b = (doc["workloads"][name]["metrics"][metric["name"]]["value"]
                    for doc in (first, second))
            difference = abs(a - b) / min(a, b)
            verdict = "ok" if difference <= metric["bound"] else "EXCEEDS"
            exceeded |= verdict != "ok"
            print(f"{metric['name']:<18} {name:<22} {a:12.4f} {b:12.4f} "
                  f"{difference:7.2%} (bound {metric['bound']:.0%}) {verdict}")
    return exceeded


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all workloads: add the traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, two rounds, in this process (smoke test)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run everything twice and compare")
    args = parser.parse_args(argv)
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.quick)
        # The result line has exactly the driver's four keys and says
        # itself whether it is correct, so the exit code is 0 either way.
        print(json.dumps({"samples": result.pop("samples")}))
        print(json.dumps(result))
        return 0
    first = run_all(args.seed, args.seconds, args.traced, args.quick)
    failed = any(not w["correct"] for w in first["workloads"].values())
    if args.check_repeat:
        second = run_all(args.seed, args.seconds, False, args.quick)
        failed |= any(not w["correct"] for w in second["workloads"].values())
        failed |= check_repeat(first, second)
    else:
        print(json.dumps(first))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
