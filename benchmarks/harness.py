"""The one harness behind every CI gate in ``benchmarks/``.

A gate script (``bench_<name>.py``) holds a scenario, a
``measure(**case) -> Measurement`` (its docstring's first line titles the
table) and a module-level ``GATE = Gate(...)``.  Everything else is here:
the ``src/`` path fallback, one untimed warm-up call before any timed one
(so no row pays a first call's lazy imports), a ``gc.collect()`` before each
measurement, the table, one JSON record per case, the failing gate named
on stderr, the exit code, ``--quick`` and ``--json``.

A gate is a ratio of two *counts* (search nodes, operations, cache hits)
against a target; they repeat exactly, so a case is measured once, and
wall-clock rides along as recorded ``ms`` columns that never gate.  The
exception is a gate whose unit is ``"ms"`` — the disabled-tracer overhead
is inherently a clock — whose gated cases are re-measured up to
``CLOCK_ATTEMPTS`` times before they fail.

    python benchmarks/harness.py [--quick] [--json PATH]   # every gate: the CI step
    python benchmarks/bench_pushdown.py --quick            # one gate, same flags and exit code
    python -m pytest benchmarks/harness.py -q              # the --quick cases as test_gate[name]

A full run of every gate writes ``BENCH_gates.json`` at the repo root.
JSON record keys: ``gate case quantity unit values ratio target direction
gated passed attempts ms counts``; ``values`` maps the two compared names
to their raw numbers, numerator first.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without install
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))

BENCH_PATH = BENCH_DIR.parent / "BENCH_gates.json"

#: Measurements of a gated case whose unit is a clock before it fails.
CLOCK_ATTEMPTS = 3


@dataclass(frozen=True)
class Measurement:
    """What one ``measure(**case)`` call returns."""

    numerator: float
    denominator: float
    ms: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Gate:
    """``numerator / denominator`` of ``quantity`` against ``target``."""

    name: str
    measure: Callable[..., Measurement]
    numerator: str
    denominator: str
    quantity: str
    target: float
    cases: tuple[dict[str, Any], ...]
    quick: tuple[dict[str, Any], ...]
    direction: str = ">="
    unit: str = "count"
    gated: Callable[[dict[str, Any]], bool] = lambda case: True


def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, float]:
    """``(fn(*args, **kwargs), elapsed milliseconds)``."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - started) * 1000.0


def run_case(gate: Gate, case: dict[str, Any]) -> dict[str, Any]:
    """Measure one case and return its JSON record."""
    gated = gate.gated(case)
    attempts = CLOCK_ATTEMPTS if gated and gate.unit == "ms" else 1
    for attempt in range(1, attempts + 1):
        gc.collect()  # the previous call's garbage is not this case's time
        measured = gate.measure(**case)
        ratio = measured.numerator / max(measured.denominator, 1e-9)
        passed = (ratio >= gate.target if gate.direction == ">="
                  else ratio <= gate.target)
        if passed:
            break
    return {
        "gate": gate.name,
        "case": case,
        "quantity": gate.quantity,
        "unit": gate.unit,
        "values": {gate.numerator: measured.numerator,
                   gate.denominator: measured.denominator},
        "ratio": ratio,
        "target": gate.target,
        "direction": gate.direction,
        "gated": gated,
        "passed": passed,
        "attempts": attempt,
        "ms": measured.ms,
        "counts": measured.counts,
    }


def run_gate(gate: Gate, quick: bool) -> list[dict[str, Any]]:
    """Warm up once, measure every case, print the table."""
    gate.measure(**gate.quick[0])
    records = [run_case(gate, case)
               for case in (gate.quick if quick else gate.cases)]
    print(format_table(gate, records))
    return records


def _cell(value: Any, digits: int) -> str:
    return f"{value:.{digits}f}" if isinstance(value, float) else str(value)


def format_table(gate: Gate, records: list[dict[str, Any]]) -> str:
    digits = 3 if gate.unit == "ms" else 1
    header = [*records[0]["case"], *records[0]["values"],
              *(f"{name} (ms)" for name in records[0]["ms"]),
              *records[0]["counts"], "ratio", "gate"]
    rows = [[*(_cell(v, 1) for v in record["case"].values()),
             *(_cell(v, 3) for v in record["values"].values()),
             *(_cell(v, 2) for v in record["ms"].values()),
             *(str(v) for v in record["counts"].values()),
             f"{record['ratio']:.{digits}f}x",
             "recorded" if not record["gated"]
             else "ok" if record["passed"] else "FAIL"]
            for record in records]
    widths = [max(len(line[i]) for line in [header, *rows])
              for i in range(len(header))]
    lines = ["  ".join(cell.rjust(width) for cell, width in zip(line, widths))
             for line in [header, *rows]]
    title = (gate.measure.__doc__ or "").partition("\n")[0]
    rule = (f"gate: {gate.direction} {gate.target:g}"
            if any(r["gated"] for r in records) else "recorded, no gate")
    return "\n".join([
        f"[{gate.name}] {title}", *lines,
        f"ratio = {gate.numerator} / {gate.denominator} in {gate.quantity}; "
        f"{rule}", ""])


def discover() -> list[Gate]:
    """The ``GATE`` of every ``bench_*.py`` that declares one.

    Only files with a top-level ``GATE = `` line are imported: the other
    ``bench_*.py`` are pytest-benchmark modules that generate instances
    at import time.
    """
    return [importlib.import_module(path.stem).GATE
            for path in sorted(BENCH_DIR.glob("bench_*.py"))
            if "\nGATE = " in path.read_text(encoding="utf-8")]


def main(gate: Gate | None = None, argv: list[str] | None = None) -> int:
    """Run ``gate`` (or every discovered one); 1 iff a gated case failed."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="the CI sizes")
    parser.add_argument("--json", metavar="PATH",
                        help="write the records here (a full run of every "
                             "gate defaults to BENCH_gates.json)")
    args = parser.parse_args(argv)
    records = [record
               for each in ([gate] if gate is not None else discover())
               for record in run_gate(each, args.quick)]
    path = args.json or (BENCH_PATH if gate is None and not args.quick
                         else None)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"quick": args.quick, "records": records}, handle,
                      indent=2)
            handle.write("\n")
        print(f"wrote {path}")
    failed = [r for r in records if r["gated"] and not r["passed"]]
    for r in failed:
        print(f"GATE FAILED: {r['gate']} {r['case']}: {r['quantity']} ratio "
              f"{r['ratio']:.3f} is not {r['direction']} {r['target']:g} "
              f"after {r['attempts']} attempt(s)", file=sys.stderr)
    return 1 if failed else 0


def pytest_generate_tests(metafunc):
    if "gate" in metafunc.fixturenames:
        gates = discover()
        metafunc.parametrize("gate", gates, ids=[g.name for g in gates])


def test_gate(gate):
    """Script, CI and pytest run the same ``--quick`` cases."""
    assert main(gate, ["--quick"]) == 0


if __name__ == "__main__":
    sys.exit(main())
