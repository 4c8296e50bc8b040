"""Compare two sets of benchmark runs under the bounds of BENCHMARK.json.

    python benchmarks/e2e/compare.py A.json B.json

A is the parent commit, B the change.  Each file holds one ``run.py``
document per line (append one per run: ``run.py --seed 3 >> A.json``);
line *i* of A and line *i* of B are taken as a pair, so run them as
pairs, alternating which side goes first (README.md, "A/B procedure").

One row per (metric, workload): the parent's median, the change's
median, their ratio, the parent's own spread (interquartile range over
median) and a verdict —

``regressed``   worse than the parent by more than the metric's bound;
``unresolved``  the parent's spread is wider than the bound, so nothing
                can be said (unless every run of B beats every run of A);
``improved``    B wins nine pairs in ten and the medians differ by more
                than the parent's interquartile range;
``unchanged``   everything else.

Exits 1 when any row is ``regressed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def load(path: str) -> list[dict]:
    return [json.loads(line)
            for line in Path(path).read_text().splitlines() if line.strip()]


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return high - low


def verdict(a: list[float], b: list[float], lower_is_better: bool,
            bound: float) -> tuple[str, float, float, float]:
    """``(verdict, base, new, spread)`` for one (metric, workload)."""
    base, new = statistics.median(a), statistics.median(b)
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (new - base) / base      # > 0: the change is worse
    spread = iqr(a) / base

    def beats(x: float, y: float) -> bool:     # x (of B) better than y (of A)
        return sign * (x - y) < 0

    if worse_by > bound:
        return "regressed", base, new, spread
    if spread > bound:
        clean_sweep = all(beats(x, y) for x in b for y in a)
        return ("improved" if clean_sweep else "unresolved"), base, new, spread
    pairs = [(x, y) for x, y in zip(b, a) if x != y]
    wins = sum(beats(x, y) for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(new - base) > iqr(a):
        return "improved", base, new, spread
    return "unchanged", base, new, spread


def compare(a_runs: list[dict], b_runs: list[dict]) -> list[tuple]:
    rows = []
    workloads = [w["name"] for w in SPEC["workloads"]]
    for metric in SPEC["end_to_end"]:
        for name in workloads:
            a, b = ([run["workloads"][name]["metrics"][metric["name"]]["value"]
                     for run in runs] for runs in (a_runs, b_runs))
            rows.append((metric["name"], name, metric["unit"], metric["bound"],
                         *verdict(a, b, metric["better"] == "lower",
                                  metric["bound"])))
    # Failures have no bound: any increase is a regression.
    for name in workloads:
        a, b = (statistics.mean(run["workloads"][name]["failed_share"]
                                for run in runs) for runs in (a_runs, b_runs))
        rows.append(("failed_share", name, "ratio", 0.0,
                     "regressed" if b > a else "unchanged", a, b, 0.0))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a_runs, b_runs = load(argv[0]), load(argv[1])
    print(f"A: {len(a_runs)} run(s) of {argv[0]}    "
          f"B: {len(b_runs)} run(s) of {argv[1]}")
    print(f"{'metric':<18} {'workload':<22} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'A spread':>9} {'bound':>6}  verdict")
    rows = compare(a_runs, b_runs)
    for metric, name, unit, bound, what, base, new, spread in rows:
        ratio = f"{new / base:7.3f}" if base else "      -"
        print(f"{metric:<18} {name:<22} {base:12.4f} {new:12.4f} {ratio} "
              f"{spread:9.1%} {bound:6.0%}  {what}  [{unit}, base {base:.4g}]")
    return int(any(row[4] == "regressed" for row in rows))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
