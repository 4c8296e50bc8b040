"""Driver behaviour: suppressions, baseline round-trip, CLI contract."""

import json
import os

from tools.analysis.checkers.counter_honesty import CounterHonestyChecker
from tools.analysis.core import (
    AnalysisDriver,
    FileContext,
    iter_python_files,
    load_baseline,
    write_baseline,
)
from tools.analysis.layers import _parse_toml_subset, parse_layers
from tools.analysis.__main__ import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

_VIOLATION = """
def scan(relation, out):
    for t in relation.tuples:
        out.append(t)
    return out
"""

_SUPPRESSED = """
def scan(relation, out):
    for t in relation.tuples:  # lint: disable=counter-honesty -- index build charged at registration
        out.append(t)
    return out
"""

_NO_REASON = """
def scan(relation, out):
    for t in relation.tuples:  # lint: disable=counter-honesty
        out.append(t)
    return out
"""


def _run(tmp_path, source, baseline=None):
    target = tmp_path / "src" / "repro" / "joins" / "mod.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    driver = AnalysisDriver([CounterHonestyChecker()], baseline)
    return driver.run(str(tmp_path), [str(target)])


def test_unsuppressed_finding_fails(tmp_path):
    result = _run(tmp_path, _VIOLATION)
    assert not result.clean
    assert [f.rule for f in result.findings] == ["counter-honesty"]
    assert result.findings[0].path == "src/repro/joins/mod.py"


def test_suppression_with_reason_silences(tmp_path):
    result = _run(tmp_path, _SUPPRESSED)
    assert result.clean
    assert len(result.suppressed) == 1
    finding, reason = result.suppressed[0]
    assert finding.rule == "counter-honesty"
    assert reason == "index build charged at registration"


def test_suppression_without_reason_is_itself_a_finding(tmp_path):
    result = _run(tmp_path, _NO_REASON)
    assert not result.clean
    assert [f.rule for f in result.findings] == ["suppression"]
    assert "no reason" in result.findings[0].message


def test_baseline_round_trip(tmp_path):
    first = _run(tmp_path, _VIOLATION)
    assert not first.clean
    baseline_path = tmp_path / "baseline.json"
    count = write_baseline(str(baseline_path), first.findings)
    assert count == 1
    entries = load_baseline(str(baseline_path))
    second = _run(tmp_path, _VIOLATION, baseline=entries)
    assert second.clean
    assert len(second.baselined) == 1


def test_fingerprint_survives_line_shifts(tmp_path):
    first = _run(tmp_path, _VIOLATION)
    shifted = "# a new leading comment\n\n" + _VIOLATION
    second = _run(tmp_path, shifted)
    assert (first.findings[0].fingerprint()
            == second.findings[0].fingerprint())
    assert first.findings[0].line != second.findings[0].line


def test_one_parse_per_file():
    ctx = FileContext("src/repro/joins/mod.py", _VIOLATION)
    assert ctx.module_name == "repro.joins.mod"
    assert ctx.tree is not None


def test_iter_python_files_skips_pycache(tmp_path):
    (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__" / "b.py").write_text("x = 2\n")
    found = list(iter_python_files(str(tmp_path), ["pkg"]))
    assert [os.path.basename(p) for p in found] == ["a.py"]


# -- CLI contract (the same invocations CI runs) ------------------------

def test_cli_clean_on_the_repo(capsys):
    assert main([]) == 0
    err = capsys.readouterr().err
    assert "0 finding(s)" in err


def test_cli_json_report_shape(capsys):
    assert main(["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["clean"] is True
    assert report["files"] > 0
    assert set(report["rules"]) == {"import-layering", "counter-honesty"}
    for entry in report["suppressed"]:
        assert entry["reason"]  # every repo suppression carries a reason


def test_cli_rejects_baseline_entries_in_gated_packages(tmp_path, capsys):
    bad = tmp_path / "baseline.json"
    bad.write_text(json.dumps([
        "counter-honesty::src/repro/joins/generic_join.py::whatever",
    ]))
    assert main(["--baseline", str(bad)]) == 1
    assert "forbidden" in capsys.readouterr().err


def test_cli_unknown_rule_is_usage_error(capsys):
    assert main(["--rules", "no-such-rule"]) == 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "counter-honesty" in out and "import-layering" in out
    assert "tracer-discipline" not in out


def test_repo_baseline_is_empty():
    baseline = load_baseline(
        os.path.join(REPO_ROOT, "tools", "analysis", "baseline.json"))
    assert baseline == set()


# -- layers.toml parsing ------------------------------------------------

def test_toml_subset_parser_agrees_with_tomllib():
    import tomllib
    path = os.path.join(REPO_ROOT, "tools", "analysis", "layers.toml")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    assert _parse_toml_subset(text) == tomllib.loads(text)


def test_real_layer_config_assigns_core_modules():
    path = os.path.join(REPO_ROOT, "tools", "analysis", "layers.toml")
    with open(path, encoding="utf-8") as handle:
        config = parse_layers(handle.read())
    joins = config.layer_of("repro.joins.generic_join")
    instrumentation = config.layer_of("repro.joins.instrumentation")
    engine = config.layer_of("repro.engine.session")
    assert joins is not None and engine is not None
    # Longest-prefix wins: instrumentation is carved out below joins.
    assert instrumentation is not None
    assert instrumentation.rank < joins.rank
    # The physical layer is the numeric one; planner layers are not.
    assert engine.numeric
    assert not config.layer_of("repro.covers.lp").numeric
