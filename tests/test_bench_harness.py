"""The gate harness (``benchmarks/harness.py``) on fake gates — no datagen."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402

#: The scripts CI gates on; a tenth ``bench_*.py`` with a ``--quick`` path
#: must show up here (and in the harness run) or the last test fails.
GATE_SCRIPTS = {
    "aggregate_pushdown", "anyk_topk", "columnar", "engine_cache",
    "faq_factorization", "hybrid_skew", "ivm_delta", "pushdown",
    "trace_overhead",
}

RECORD_KEYS = {
    "gate", "case", "quantity", "unit", "values", "ratio", "target",
    "direction", "gated", "passed", "attempts", "ms", "counts",
}


def fake_gate(ratios, **overrides):
    """A gate whose ``measure(size)`` returns ``ratios[size]`` and logs calls."""
    calls = []

    def measure(size):
        """Fake scenario."""
        calls.append(size)
        return harness.Measurement(ratios[size], 1, ms={"side": 0.5},
                                   counts={"rows": 7})

    fields = dict(name="fake", measure=measure, numerator="old",
                  denominator="new", quantity="nodes", target=2.0,
                  cases=({"size": 1}, {"size": 2}), quick=({"size": 0},))
    return harness.Gate(**{**fields, **overrides}), calls


def test_meeting_the_target_exits_zero(capsys):
    gate, _ = fake_gate({0: 5.0, 1: 2.0, 2: 3.0})
    assert harness.main(gate, []) == 0
    out, err = capsys.readouterr()
    assert "[fake] Fake scenario." in out and "FAIL" not in out
    assert err == ""


def test_missing_the_target_exits_one_and_names_the_case(capsys):
    gate, _ = fake_gate({0: 5.0, 1: 2.0, 2: 1.5})
    assert harness.main(gate, []) == 1
    out, err = capsys.readouterr()
    assert "GATE FAILED: fake {'size': 2}" in err
    assert "{'size': 1}" not in err
    assert "FAIL" in out


def test_at_most_direction():
    gate, _ = fake_gate({0: 1.0, 1: 1.04, 2: 1.06}, target=1.05,
                        direction="<=")
    first, second = harness.run_gate(gate, quick=False)
    assert first["passed"] and not second["passed"]


def test_ungated_case_never_fails_the_run(capsys):
    gate, _ = fake_gate({0: 5.0, 1: 2.0, 2: 0.1},
                        gated=lambda case: case["size"] == 1)
    assert harness.main(gate, []) == 0
    assert "recorded" in capsys.readouterr().out
    records = harness.run_gate(gate, quick=False)
    assert [(r["gated"], r["passed"]) for r in records] == [
        (True, True), (False, False)]


def test_quick_selects_the_quick_cases():
    gate, calls = fake_gate({0: 5.0, 1: 0.0, 2: 0.0})
    assert harness.main(gate, ["--quick"]) == 0
    assert calls == [0, 0]  # warm-up, then the one quick case


def test_warm_up_precedes_the_first_timed_call():
    gate, calls = fake_gate({0: 0.0, 1: 2.0, 2: 3.0})
    records = harness.run_gate(gate, quick=False)
    assert calls == [0, 1, 2]  # the warm-up (a failing ratio) is discarded
    assert [r["case"] for r in records] == [{"size": 1}, {"size": 2}]


def test_json_record_has_exactly_the_documented_keys(tmp_path):
    gate, _ = fake_gate({0: 5.0})
    path = tmp_path / "gates.json"
    assert harness.main(gate, ["--quick", "--json", str(path)]) == 0
    document = json.loads(path.read_text())
    assert document["quick"] is True
    (record,) = document["records"]
    assert set(record) == RECORD_KEYS
    assert all(key in harness.__doc__ for key in RECORD_KEYS)
    assert record["values"] == {"old": 5.0, "new": 1}
    assert record["ratio"] == 5.0 and record["target"] == 2.0
    assert record["ms"] == {"side": 0.5} and record["counts"] == {"rows": 7}


def test_single_gate_run_does_not_write_the_root_file(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "BENCH_PATH", tmp_path / "BENCH_gates.json")
    gate, _ = fake_gate({0: 5.0, 1: 2.0, 2: 3.0})
    assert harness.main(gate, []) == 0
    assert not (tmp_path / "BENCH_gates.json").exists()
    monkeypatch.setattr(harness, "discover", lambda: [gate])
    assert harness.main(None, ["--quick"]) == 0
    assert not (tmp_path / "BENCH_gates.json").exists()
    assert harness.main(None, []) == 0
    assert (tmp_path / "BENCH_gates.json").exists()


@pytest.mark.parametrize("unit,expected_calls", [
    ("ms", 1 + harness.CLOCK_ATTEMPTS),  # warm-up + every attempt
    ("count", 1 + 1),                    # counts repeat: measured once
])
def test_only_a_clock_gate_is_retried(unit, expected_calls):
    gate, calls = fake_gate({0: 0.0}, unit=unit)
    assert harness.main(gate, ["--quick"]) == 1
    assert len(calls) == expected_calls


def test_clock_gate_stops_retrying_once_it_passes():
    ratios = iter([9.0, 0.0, 9.0, 0.0])  # warm-up, fail, pass, (unused)

    def measure():
        """Flaky clock."""
        return harness.Measurement(next(ratios), 1)

    gate = harness.Gate(name="flaky", measure=measure, numerator="a",
                        denominator="b", quantity="ms", unit="ms",
                        target=2.0, cases=({},), quick=({},))
    (record,) = harness.run_gate(gate, quick=True)
    assert record["passed"] and record["attempts"] == 2


def test_discovery_finds_every_quick_script():
    assert {gate.name for gate in harness.discover()} == GATE_SCRIPTS
    quick_scripts = {path.stem.removeprefix("bench_")
                     for path in BENCH_DIR.glob("bench_*.py")
                     if "--quick" in path.read_text(encoding="utf-8")}
    assert quick_scripts == GATE_SCRIPTS
