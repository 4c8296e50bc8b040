"""Each rule demonstrably fails its seeded fixture and passes the twin.

Fixture sources live in ``fixtures/`` (never imported, only parsed);
each is wrapped in a :class:`FileContext` under a repo path the checker
covers, so these tests exercise exactly the configuration the CI run
uses.
"""

import os
import shutil

import pytest

from tools.analysis.checkers.counter_honesty import CounterHonestyChecker
from tools.analysis.checkers.layering import LayeringChecker
from tools.analysis.checkers.unreferenced import UnreferencedDefinitionChecker
from tools.analysis.core import AnalysisDriver, FileContext
from tools.analysis.layers import Layer, LayerConfig

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")

_LAYERS = LayerConfig(
    Layer("low", ("repro.low",)),
    Layer("high", ("repro.high",), numeric=True),
    Layer("apps", ("repro.apps",)),
)


def _ctx(fixture: str, relpath: str) -> FileContext:
    with open(os.path.join(FIXTURES, fixture), encoding="utf-8") as handle:
        return FileContext(relpath, handle.read())


def _messages(findings):
    return [f.message for f in findings]


# -- counter-honesty ----------------------------------------------------

def test_counter_honesty_fails_seeded_fixture():
    ctx = _ctx("counter_bad.py", "src/repro/joins/fixture.py")
    findings = list(CounterHonestyChecker().check_file(ctx))
    assert len(findings) == 3
    messages = " ".join(_messages(findings))
    assert "scan" in messages
    assert "project" in messages
    assert "vectorized fold" in messages


def test_counter_honesty_passes_clean_twin():
    ctx = _ctx("counter_clean.py", "src/repro/joins/fixture.py")
    assert list(CounterHonestyChecker().check_file(ctx)) == []


def test_counter_honesty_measures_the_relational_operators():
    ctx = _ctx("counter_bad.py", "src/repro/relational/operators.py")
    assert len(list(CounterHonestyChecker().check_file(ctx))) == 3


def test_counter_honesty_ignores_unmeasured_packages():
    ctx = _ctx("counter_bad.py", "src/repro/relational/fixture.py")
    assert list(CounterHonestyChecker().check_file(ctx)) == []


def test_counter_honesty_sees_materialising_calls_on_node_values():
    ctx = _ctx("counter_set_bad.py", "src/repro/joins/fixture.py")
    messages = _messages(CounterHonestyChecker().check_file(ctx))
    assert len(messages) == 3
    assert any("intersect: set(node.sorted_keys)" in m for m in messages)
    assert any("frozenset(trie.values(prefix))" in m for m in messages)
    assert any("sorted(node.sorted_keys)" in m for m in messages)
    # Per-node value lists are a repro.joins notion.
    ctx = _ctx("counter_set_bad.py", "src/repro/columnar/fixture.py")
    assert list(CounterHonestyChecker().check_file(ctx)) == []


def test_counter_honesty_passes_probing_twin():
    ctx = _ctx("counter_set_clean.py", "src/repro/joins/fixture.py")
    assert list(CounterHonestyChecker().check_file(ctx)) == []


# -- import-layering ----------------------------------------------------

def test_layering_fails_seeded_fixture():
    ctx = _ctx("layering_bad.py", "src/repro/low/bad.py")
    findings = list(LayeringChecker(_LAYERS).check_file(ctx))
    messages = _messages(findings)
    assert any("numpy" in m for m in messages)
    upward = [m for m in messages if "higher layer 'high'" in m]
    assert len(upward) == 2
    assert any("(lazy)" in m for m in upward)


def test_layering_passes_clean_twin():
    ctx = _ctx("layering_clean.py", "src/repro/high/clean.py")
    assert list(LayeringChecker(_LAYERS).check_file(ctx)) == []


def test_layering_skips_modules_outside_the_dag():
    ctx = _ctx("layering_bad.py", "tests/somewhere/bad.py")
    assert list(LayeringChecker(_LAYERS).check_file(ctx)) == []


# -- unreferenced-definition ------------------------------------------
#
# ``unreferenced_clean/``: every definition and module has one reader;
# ``unreferenced_bad/`` overlays planted orphans and an unloaded module.

def _unreferenced(tmp_path, overlay=None, edit=None, additions=()):
    """The findings' subjects: a definition's or a module's name."""
    root = tmp_path / "repo"
    shutil.copytree(os.path.join(FIXTURES, "unreferenced_clean"), root)
    if overlay:
        shutil.copytree(os.path.join(FIXTURES, overlay), root,
                        dirs_exist_ok=True)
    if edit:  # (path, old, new): remove one reader
        path, old, new = edit
        text = (root / path).read_text(encoding="utf-8")
        assert old in text
        (root / path).write_text(text.replace(old, new), encoding="utf-8")
    for path, text in additions:  # appended; a missing file is created
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        with open(root / path, "a", encoding="utf-8") as handle:
            handle.write(text)
    result = AnalysisDriver([UnreferencedDefinitionChecker(str(root))]).run(
        str(root), [str(p) for p in (root / "src").rglob("*.py")])
    return [(f.path, f.message.split("'")[1] if f.message.startswith("'")
             else f.message.split(" ")[1]) for f in result.findings]


def test_unreferenced_fails_seeded_fixture(tmp_path):
    assert _unreferenced(tmp_path, "unreferenced_bad") == [
        ("src/repro/orphan_module.py", "repro.orphan_module"),
        # listed in its own __all__, named in its docstring
        ("src/repro/planted.py", "orphan"),
        ("src/repro/planted.py", "_orphan_helper"),  # only orphan calls it
        # a test and a bare string statement name it
        ("src/repro/planted.py", "test_only"),
    ]


def test_unreferenced_passes_clean_twin(tmp_path):
    # Dunder names are never findings.
    assert _unreferenced(tmp_path) == []


@pytest.mark.parametrize("edit, orphans", [
    pytest.param(("src/repro/experiments/table.py", "core.used_by_module()",
                  "None"), {"used_by_module"}, id="another-module"),
    pytest.param(("src/repro/experiments/table.py", '"dispatched"', '"x"'),
                 {"dispatched"}, id="string-constant"),
    pytest.param(("benchmarks/bench_core.py", "used_by_benchmark", "x"),
                 {"used_by_benchmark"}, id="benchmark"),
    pytest.param(("tools/report.py", "used_by_tool", "x"), {"used_by_tool"},
                 id="tool"),
    pytest.param(("examples/demo.py", "used_by_example", "x"),
                 {"used_by_example"}, id="example"),
    pytest.param(("src/repro/__init__.py", '"exported"', '"x"'),
                 {"exported"}, id="repro-all"),
    pytest.param(("docs/paper-map.md", "`cited` in ", ""),
                 {"cited", "_cited_helper"}, id="paper-map"),
    pytest.param(("src/repro/core.py", '{"registered": _registered}', "{}"),
                 {"_registered"}, id="module-level-code"),
    pytest.param(("src/repro/cli.py", '_exp("table")', '_exp("x")'),
                 {"repro.experiments.table"}, id="cli-string-dispatch"),
    pytest.param(("examples/demo.py", "import repro.shown", ""),
                 {"repro.shown"}, id="example-import"),
    pytest.param(("docs/paper-map.md", "; `src/repro/artifact.py`", ""),
                 {"repro.artifact"}, id="paper-map-path"),
])
def test_unreferenced_accepts_each_kind_of_reference(tmp_path, edit,
                                                     orphans):
    # Its one reader removed, a definition or module is a finding.
    assert {name for _, name in _unreferenced(tmp_path, edit=edit)} == orphans


_ORPHAN = "\n\ndef orphan():\n    pass\n"


@pytest.mark.parametrize("path, text, orphans", [
    pytest.param("tests/test_core.py", "from repro.core import orphan\n"
                 "orphan()\n", {"orphan"}, id="test"),
    pytest.param("src/repro/cli.py", '\n\ndef _run():\n    """orphan"""\n\n\n'
                 "RUNNERS = [_run]\n", {"orphan"}, id="docstring"),
    pytest.param("src/repro/cli.py", "# orphan()\n", {"orphan"}, id="comment"),
    pytest.param("src/repro/cli.py", '"orphan"\n', {"orphan"},
                 id="bare-string"),
    pytest.param("src/repro/core.py", '__all__ = ["orphan"]\n', {"orphan"},
                 id="own-all"),
    pytest.param("src/repro/core.py", "\n\ndef caller():\n    return orphan()"
                 "\n", {"orphan", "caller"}, id="orphan-caller"),
    pytest.param("docs/architecture.md", "`orphan`\n", {"orphan"},
                 id="other-doc"),
    pytest.param("scripts/run.py", "from repro.core import orphan\n",
                 {"orphan"}, id="unlisted-tree"),
    pytest.param("src/repro/core.py", "\n\nclass Kept:\n    def unused(self):"
                 "\n        pass\n\n\nKEPT = Kept\n", {"orphan"}, id="method"),
    pytest.param("src/repro/core.py", "\n\ndef __getattr__(name):\n"
                 "    raise AttributeError(name)\n", {"orphan"}, id="dunder"),
])
def test_unreferenced_ignores_what_is_not_a_use(tmp_path, path, text,
                                                orphans):
    # A planted orphan stays one whatever else names it; an unused method
    # or dunder is no finding.
    additions = [("src/repro/core.py", _ORPHAN), (path, text)]
    assert {name for _, name in _unreferenced(tmp_path, additions=additions)
            } == orphans
