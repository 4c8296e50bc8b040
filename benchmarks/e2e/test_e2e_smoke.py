"""Smoke test of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_quick_run_reports_every_metric_of_every_workload():
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--traced"],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert time.perf_counter() - start < 20
    assert done.returncode == 0
    document = json.loads(done.stdout.strip().splitlines()[-1])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for workload in SPEC["workloads"]:
        result = document["workloads"][workload["name"]]
        assert result["correct"] and result["failed_share"] == 0
        for name in names:
            assert math.isfinite(result["metrics"][name]["value"]), name
        assert (HERE / "out" / f"trace-{workload['name']}-seed0.ndjson").stat().st_size


def test_corrupted_digest_counts_as_failure():
    sys.path.insert(0, str(HERE))
    import run

    workload, oracle, _ = run.set_up("warm_cyclic_columnar", 0, quick=True)
    wrong = {key: (rows + 1, text) for key, (rows, text) in oracle.items()}
    phase = run.measure(workload, wrong, rounds=1)
    assert phase.attempted > 0 and phase.failed == phase.attempted
    assert run.measure(workload, oracle, rounds=1).failed == 0
