"""Each rule demonstrably fails its seeded fixture and passes the twin.

Fixture sources live in ``fixtures/`` (never imported, only parsed);
each is wrapped in a :class:`FileContext` under a repo path the checker
covers, so these tests exercise exactly the configuration the CI run
uses.
"""

import os

from tools.analysis.checkers.counter_honesty import CounterHonestyChecker
from tools.analysis.checkers.layering import LayeringChecker
from tools.analysis.core import FileContext
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
