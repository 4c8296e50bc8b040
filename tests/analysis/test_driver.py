"""Driver behaviour: suppressions, the CLI, and the repository run."""

import ast
import os
import subprocess
import sys

import pytest

from tools.analysis.checkers import default_checkers
from tools.analysis.checkers.counter_honesty import CounterHonestyChecker
from tools.analysis.core import AnalysisDriver, FileContext
from tools.analysis.layers import LAYERS
from tools.analysis.__main__ import REPO_ROOT, main, run_on_repo

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")

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


def _run(tmp_path, source):
    target = tmp_path / "src" / "repro" / "joins" / "mod.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    driver = AnalysisDriver([CounterHonestyChecker()])
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


def test_unused_suppression_is_a_finding(tmp_path):
    with open(os.path.join(FIXTURES, "suppression_unused.py"),
              encoding="utf-8") as handle:
        result = _run(tmp_path, handle.read())
    assert not result.clean and not result.suppressed
    assert [(f.rule, f.line) for f in result.findings] == [
        ("suppression", 5), ("suppression", 11)]
    assert "'counter-honesty' silences no finding" in result.findings[0].message
    assert "'semiring-protocol'" in result.findings[1].message


def test_partly_used_suppression_reports_only_the_unused_rule(tmp_path):
    source = _SUPPRESSED.replace("disable=counter-honesty",
                                 "disable=counter-honesty,import-layering")
    result = _run_all(tmp_path, "src/repro/joins/mod.py", source)
    assert [f.rule for f, _ in result.suppressed] == ["counter-honesty"]
    assert [(f.rule, f.line) for f in result.findings] == [("suppression", 3)]
    assert "'import-layering' silences no finding" in result.findings[0].message


def test_one_parse_per_file():
    ctx = FileContext("src/repro/joins/mod.py", _VIOLATION)
    assert ctx.module_name == "repro.joins.mod"
    assert ctx.tree is not None


# -- the full rule set on a temporary tree ------------------------------

def _run_all(tmp_path, relpath, source):
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return AnalysisDriver(default_checkers()).run(str(tmp_path),
                                                  [str(target)])


def test_default_rules_flag_an_uncharged_loop_in_joins(tmp_path):
    result = _run_all(tmp_path, "src/repro/joins/mod.py", _VIOLATION)
    assert [(f.rule, f.line) for f in result.findings] == [
        ("counter-honesty", 3)]


def test_default_rules_flag_an_upward_module_level_import(tmp_path):
    result = _run_all(tmp_path, "src/repro/relational/mod.py",
                      "from repro.engine import Engine\n")
    assert [(f.rule, f.line) for f in result.findings] == [
        ("import-layering", 1)]
    assert "higher layer 'engine'" in result.findings[0].message
    assert "(lazy)" not in result.findings[0].message


def test_default_rules_flag_numpy_in_the_query_layer(tmp_path):
    result = _run_all(tmp_path, "src/repro/query/mod.py", "import numpy\n")
    assert [(f.rule, f.line) for f in result.findings] == [
        ("import-layering", 1)]
    assert "numeric stack" in result.findings[0].message


def test_default_rules_flag_networkx_in_the_constraints_layer(tmp_path):
    result = _run_all(tmp_path, "src/repro/constraints/mod.py",
                      "def graph():\n    import networkx\n")
    assert [(f.rule, f.line) for f in result.findings] == [
        ("import-layering", 2)]
    assert "networkx (lazy)" in result.findings[0].message


# -- the repository run (what the CI analysis job executes) -------------

def test_cli_clean_on_the_repo(capsys):
    assert main() == 0
    err = capsys.readouterr().err
    assert "0 finding(s)" in err


def test_default_checkers_are_the_three_rules():
    assert {c.rule for c in default_checkers()} == {
        "import-layering", "counter-honesty", "unreferenced-definition"}


@pytest.fixture(scope="session")
def repo_run():
    """One in-process lint of the whole repository, shared by the tests
    that read its result (the CLI tests keep their own runs)."""
    return run_on_repo()


def test_repo_run_has_two_reasoned_suppressions(repo_run):
    assert repo_run.findings == []
    assert sorted((f.path, f.rule) for f, _ in repo_run.suppressed) == [
        ("src/repro/columnar/layout.py", "counter-honesty"),
        ("src/repro/engine/session.py", "import-layering"),
    ]
    assert all(reason for _, reason in repo_run.suppressed)


def test_repo_run_checks_every_python_file_under_src(repo_run):
    src = os.path.join(REPO_ROOT, "src")
    expected = sum(name.endswith(".py")
                   for _dirpath, _dirs, names in os.walk(src)
                   for name in names)
    assert repo_run.files_checked == expected > 0


# -- Python 3.10 has no tomllib -----------------------------------------

def test_no_tomllib_import_under_tools_or_tests():
    offenders = []
    for top in ("tools", "tests"):
        for dirpath, _dirs, names in os.walk(os.path.join(REPO_ROOT, top)):
            for name in names:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=path)
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        modules = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        modules = [node.module or ""]
                    else:
                        continue
                    if any(m.split(".")[0] == "tomllib" for m in modules):
                        offenders.append(
                            f"{os.path.relpath(path, REPO_ROOT)}:{node.lineno}")
    assert offenders == []


def test_cli_runs_with_tomllib_unavailable():
    script = ("import sys; sys.modules['tomllib'] = None; "
              "from tools.analysis.__main__ import main; sys.exit(main())")
    proc = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "0 finding(s), 2 suppressed" in proc.stderr


def test_real_layer_config_assigns_core_modules():
    joins = LAYERS.layer_of("repro.joins.generic_join")
    instrumentation = LAYERS.layer_of("repro.joins.instrumentation")
    engine = LAYERS.layer_of("repro.engine.session")
    assert joins is not None and engine is not None
    # Longest-prefix wins: instrumentation is carved out below joins.
    assert instrumentation is not None
    assert LAYERS.rank(instrumentation) < LAYERS.rank(joins)
    # Columnar is the numeric layer; the engine and the planner layers
    # are not.
    assert LAYERS.layer_of("repro.columnar.join").numeric
    assert not engine.numeric
    assert not LAYERS.layer_of("repro.covers.lp").numeric


def test_real_layer_config_puts_the_paper_side_above_the_engine():
    def rank(module):
        return LAYERS.rank(LAYERS.layer_of(module))

    engine = rank("repro.engine.session")
    # columnar.executor subclasses an engine executor: carved out of
    # columnar into the engine's layer, with the kernel below it.
    assert rank("repro.columnar.executor") == engine
    assert rank("repro.columnar.join") < engine
    # AGM is the one bound the dispatcher reads; it sits with the covers.
    assert (rank("repro.bounds.agm") == rank("repro.covers.edge_cover")
            < rank("repro.joins.generic_join"))
    assert rank("repro.query.widths") < rank("repro.covers.hypertree")
    for module in ("repro.bounds.polymatroid", "repro.infotheory.shearer",
                   "repro.datagen.graphs", "repro.panda.interpreter",
                   "repro.experiments.table1"):
        assert rank(module) > rank("repro.ivm.view") > engine
