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

Run: ``python benchmarks/bench_hybrid_skew.py [--quick]``
(flags, table and exit code are ``harness.py``'s).
"""

from __future__ import annotations

from harness import Gate, Measurement, main

from repro.datagen.graphs import skew_cycle_instance
from repro.engine import Engine
from repro.joins.instrumentation import OperationCounter

#: The Zipf exponent the gate is evaluated at.
GATE_EXPONENT = 1.5

CYCLE_QUERY = "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)"


def measure(exponent: float, binary: bool = True) -> Measurement:
    """Operation totals per forced strategy at one Zipf exponent.

    Rows are checked bit-identical against the generic-join oracle on
    every run — a speedup with wrong answers is worthless.  The ratio is
    best-pure over hybrid on :meth:`OperationCounter.total`.
    """
    database = skew_cycle_instance(exponent, seed=0)
    ops: dict[str, int] = {}
    oracle: list[tuple] = []
    modes = ("generic", "hybrid", "leapfrog") + (("binary",) if binary else ())
    for mode in modes:
        engine = Engine(database, cache_results=False)
        counter = OperationCounter()
        result = engine.execute(CYCLE_QUERY, mode=mode, counter=counter)
        ops[mode] = counter.total()
        rows = sorted(result.tuples)
        if mode == "generic":
            oracle = rows
        elif rows != oracle:
            raise AssertionError(
                f"exponent {exponent}: {mode} rows diverged from the "
                f"generic oracle")
    best_pure = min(count for mode, count in ops.items() if mode != "hybrid")
    return Measurement(best_pure, ops["hybrid"],
                       counts={"rows": len(oracle), **ops})


GATE = Gate(
    name="hybrid_skew",
    measure=measure,
    numerator="best pure", denominator="hybrid", quantity="operations",
    target=5.0,
    cases=tuple({"exponent": e} for e in (1.1, GATE_EXPONENT, 2.0)),
    # The quick run drops binary: its chain materialization is the *worst*
    # pure strategy here — it can never be the ``min`` the gate compares
    # against — and it dominates wall clock.
    quick=({"exponent": GATE_EXPONENT, "binary": False},),
    gated=lambda case: case["exponent"] == GATE_EXPONENT,
)

if __name__ == "__main__":
    raise SystemExit(main(GATE))
