"""Hybrid heavy/light strategy vs the pure engines on a skewed 4-cycle.

The workload is the survey's "skew strikes back" regime arranged as a
4-cycle ``Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)``: a Zipf-decayed
sequence of hub values of ``A`` is heavy in both relations that touch
``A``, every hub's ``R``-neighborhood fans through ``S`` into a small
``C``-pool, and the cycle almost never closes for hubs because ``T``
emits odd ``D`` values while the hubs' ``U``-tuples carry even ones
(value-disjoint neighborhoods — the adversarial arrangement that degree
statistics alone cannot see).  A sprinkle of light ``A`` values with
genuine cycles keeps the output non-empty.

Every pure strategy pays for the hubs:

* **generic/leapfrog** ground out the full hub expansion — for each hub
  binding ``A=a`` they walk ``deg(a) * |S[b]|`` partial tuples and pay an
  intersection at ``D`` per one, only to find it empty;
* **binary** materializes the ``R |x| S |x| T`` chain before ``U`` can
  prune it.

The hybrid plan partitions on ``A`` and runs each heavy key as a
*residual* Yannakakis sub-plan: binding ``A=a`` leaves the 2-path
``S(B,C), T(C,D)`` with unary gates from the key's ``R``/``U`` buckets,
so a hub costs a couple of linear passes instead of its output-free
product expansion.  The CI gate requires the hybrid to do **>= 5x fewer
operations** (tuples scanned + emitted + hash + intersection + search
work, the engines' shared currency) than the best pure strategy at Zipf
exponent 1.5, with bit-identical rows asserted on every measurement.

Results land in ``BENCH_hybrid.json`` at the repo root.  Run standalone
(exit code gates on the ratio)::

    python benchmarks/bench_hybrid_skew.py [--quick]

or through pytest::

    python -m pytest benchmarks/bench_hybrid_skew.py -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

try:
    from repro.engine import Engine
except ImportError:  # running standalone from a checkout without install
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from repro.engine import Engine

from repro.datagen.graphs import skew_cycle_instance
from repro.joins.instrumentation import OperationCounter

#: Minimum acceptable best-pure/hybrid operation-count ratio (CI gate).
TARGET_RATIO = 5.0

#: The Zipf exponent the gate is evaluated at.
GATE_EXPONENT = 1.5

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..",
                          "BENCH_hybrid.json")

CYCLE_QUERY = "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)"


def measure(exponent: float, modes: tuple[str, ...],
            seed: int = 0) -> dict:
    """Operation totals per forced strategy at one Zipf exponent.

    Rows are checked bit-identical against the generic-join oracle on
    every run — a speedup with wrong answers is worthless.  The ratio is
    best-pure over hybrid on :meth:`OperationCounter.total`.
    """
    database = skew_cycle_instance(exponent, seed=seed)
    ops: dict[str, int] = {}
    oracle = None
    for mode in modes:
        engine = Engine(database, cache_results=False)
        counter = OperationCounter()
        result = engine.execute(CYCLE_QUERY, mode=mode, counter=counter)
        ops[mode] = counter.total()
        rows = sorted(result.tuples)
        if mode == "generic":
            oracle = rows
        elif oracle is not None and rows != oracle:
            raise AssertionError(
                f"exponent {exponent}: {mode} rows diverged from the "
                f"generic oracle")
    best_pure = min(count for mode, count in ops.items() if mode != "hybrid")
    return {
        "exponent": exponent,
        "sizes": {name: len(database.get(name))
                  for name in ("R", "S", "T", "U")},
        "rows": len(oracle),
        "ops": ops,
        "best_pure_ops": best_pure,
        "ratio": best_pure / max(ops["hybrid"], 1),
    }


#: Full sweep vs CI smoke.  The quick run drops binary (its chain
#: materialization is the *worst* pure strategy here — it can never be
#: the ``min`` the gate compares against — and it dominates wall clock)
#: and measures only the gate exponent.
FULL_MODES = ("generic", "hybrid", "leapfrog", "binary")
QUICK_MODES = ("generic", "hybrid", "leapfrog")
FULL_EXPONENTS = (1.1, 1.5, 2.0)
QUICK_EXPONENTS = (GATE_EXPONENT,)


@pytest.mark.experiment("hybrid-skew")
def test_hybrid_beats_best_pure_by_5x():
    """At Zipf exponent 1.5 the hybrid must do >=5x fewer operations
    than the best pure strategy, with bit-identical rows (asserted
    inside measure)."""
    entry = measure(GATE_EXPONENT, QUICK_MODES)
    assert entry["ratio"] >= TARGET_RATIO, (
        f"hybrid {entry['ops']['hybrid']} ops vs best pure "
        f"{entry['best_pure_ops']}: {entry['ratio']:.1f}x < "
        f"{TARGET_RATIO:.0f}x")


def run(exponents=FULL_EXPONENTS, modes=FULL_MODES,
        emit_json: bool = True) -> bool:
    print("hybrid heavy/light vs pure strategies — operation counts on "
          "the skewed 4-cycle, bit-identical output asserted")
    header = f"{'exponent':>8s} {'rows':>6s}"
    for mode in modes:
        header += f" {mode:>10s}"
    print(header + f" {'ratio':>7s}")
    entries = []
    ok = True
    for exponent in exponents:
        entry = measure(exponent, modes)
        entries.append(entry)
        if exponent == GATE_EXPONENT:
            ok = ok and entry["ratio"] >= TARGET_RATIO
        line = f"{exponent:8.1f} {entry['rows']:6d}"
        for mode in modes:
            line += f" {entry['ops'][mode]:10d}"
        print(line + f" {entry['ratio']:6.1f}x")
    print(f"target: >= {TARGET_RATIO:.0f}x fewer operations than the best "
          f"pure strategy at exponent {GATE_EXPONENT}")
    if emit_json:
        payload = {
            "benchmark": "hybrid_skew",
            "query": CYCLE_QUERY,
            "target_ratio": TARGET_RATIO,
            "gate_exponent": GATE_EXPONENT,
            "entries": entries,
        }
        with open(BENCH_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {os.path.normpath(BENCH_PATH)}")
    return ok


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv
    if quick:
        return 0 if run(exponents=QUICK_EXPONENTS, modes=QUICK_MODES,
                        emit_json=False) else 1
    return 0 if run() else 1


if __name__ == "__main__":
    sys.exit(main())
