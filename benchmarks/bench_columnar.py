"""Columnar backend vs the pure-Python oracle: bit-identity, ratio recorded.

Two workloads where the per-tuple Python constant dominates:

* **triangle** — the skewed ("star") triangle instance, full enumeration:
  pairwise joins are Omega(n^2/4) while the output is O(n), so both
  backends run the same worst-case-optimal plan and the measured gap is
  pure representation (sorted NumPy columns, each seek one
  ``np.searchsorted`` over a composite key, vs per-tuple dict probing).
* **star** — a skewed 3-arm star with head projection ``Q(A)``: the
  existential tail exercises the component-factorized boolean eliminator,
  vectorized over frontier runs on the columnar side.

Both backends run the *same* generic-join plan (strategy held fixed) and
must return bit-identical rows in bit-identical order — asserted on every
measured run, never trusted; a divergence raises and fails the run.  The
python / columnar-warm wall-clock ratio (and the cold layout build) is
*recorded, not gated*: the backend comparison is tracked on every PR by
the ``warm_cyclic_columnar`` / ``warm_cyclic_python`` pair of the
end-to-end benchmark (``benchmarks/e2e``).  The total operations of one
counted warm columnar run are recorded beside it as ``columnar_ops``,
never gated: they repeat exactly unless the kernel's charged work
changed.

Run: ``python benchmarks/bench_columnar.py [--quick]``; flags and table are
``harness.py``'s, and only diverging rows fail it.
"""

from __future__ import annotations

import random

from harness import Gate, Measurement, main, timed

from repro.datagen.worstcase import triangle_skew_instance
from repro.engine import Engine
from repro.joins.instrumentation import OperationCounter
from repro.relational.database import Database
from repro.relational.relation import Relation

STAR_QUERY = "Q(A) :- R1(A,B1), R2(A,B2), R3(A,B3)"

#: Warm figures are the minimum over this many runs: single-shot wall
#: clock on a shared runner is dominated by scheduler and allocator noise.
REPEATS = 3


def star_skew_instance(n: int) -> Database:
    """Three arms around a shared key with one heavy hub.

    Key 0 carries ~n/2 rows per arm, the rest are singletons: the
    projection ``Q(A)`` forces the existential eliminator to prove one
    witness per surviving key while the hub key alone would enumerate
    Omega(n^3/8) full bindings if projection were done by drain-and-dedup.
    """
    m = max(1, n // 2)
    relations = []
    for i, column in enumerate(("B1", "B2", "B3")):
        rng = random.Random(1000 * i + n)
        rows = [(0, j) for j in range(1, m + 1)]
        rows += [(k, rng.randrange(m)) for k in range(1, m + 1)]
        relations.append(Relation(f"R{i + 1}", ("A", column), sorted(set(rows))))
    return Database(relations)


def measure(workload: str, n: int) -> Measurement:
    """One workload at one size: python warm vs columnar cold and warm.

    The python run is measured with its tries already built (warm-up run
    first), the columnar side both cold (layout materialization included,
    single shot by definition) and warm — the steady-state comparison the
    dispatcher's pricing assumes — plus one counted warm run, untimed.
    Bit-identity of rows and order is asserted on every run.
    """
    if workload == "triangle":
        query, database = triangle_skew_instance(n)
    else:
        query, database = STAR_QUERY, star_skew_instance(n)
    engine = Engine(database=database, cache_results=False)
    expected = list(engine.execute(query, mode="generic").tuples)  # builds the tries

    def checked_ms(**kwargs) -> float:
        result, ms = timed(engine.execute, query, mode="generic", **kwargs)
        if list(result.tuples) != expected:
            raise AssertionError(
                f"{workload}[{n}] {kwargs}: rows diverged from the python "
                f"oracle")
        return ms

    python_ms = min(checked_ms() for _ in range(REPEATS))
    cold_ms = checked_ms(backend="columnar")
    warm_ms = min(checked_ms(backend="columnar") for _ in range(REPEATS))
    counter = OperationCounter()
    checked_ms(backend="columnar", counter=counter)
    return Measurement(python_ms, warm_ms, ms={"columnar cold": cold_ms},
                       counts={"rows": len(expected),
                               "columnar_ops": counter.total()})


GATE = Gate(
    name="columnar",
    measure=measure,
    numerator="python", denominator="columnar warm",
    quantity=f"best-of-{REPEATS} ms", unit="ms",
    target=1.0,
    # The triangle's python cost grows ~quadratically (pairwise skew), the
    # star's linearly — the star needs larger n before the columnar
    # backend's fixed per-query overhead amortizes away.
    cases=({"workload": "triangle", "n": 4000},
           {"workload": "triangle", "n": 10000},
           {"workload": "star", "n": 15000},
           {"workload": "star", "n": 30000}),
    quick=({"workload": "triangle", "n": 3000},
           {"workload": "star", "n": 15000}),
    gated=lambda case: False,
)

if __name__ == "__main__":
    raise SystemExit(main(GATE))
