"""The columnar component fold's separator memo.

Below the group (or head) prefix the kernel folds each residual component
once per binding of a position's separator, where one atom holds that
separator, instead of once per frontier row.  Every case here runs the
kernel directly, so a fallback to the python oracle would raise instead
of passing silently.  It must reproduce the python recursion's rows in
its order.  It must also do less work than the same kernel with the memo
switched off (``_KEY_LIMIT = 0`` admits no key), which shows the memo
level is really there.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.executors import _trie_requests
from repro.engine.session import Engine
from repro.joins.instrumentation import OperationCounter
from repro.query.builder import Query
from repro.relational.relation import Relation

pytest.importorskip("numpy")

from repro.columnar import join  # noqa: E402


def _engine(**edges) -> Engine:
    return Engine(relations=[
        Relation(name, tuple(f"c{i}" for i in range(len(rows[0]))),
                 sorted(set(rows)))
        for name, rows in edges.items()], cache_results=False)


def _kernel(engine: Engine, query: str) -> tuple[list, OperationCounter]:
    """The kernel's rows on the plan's order, and its charged work."""
    spec = Query.coerce(query)
    order = engine.explain(query, mode="generic",
                           backend="columnar").variable_order
    layouts = engine.registry.columnar_layouts(
        _trie_requests(spec.core, engine.database, order))
    counter = OperationCounter()
    rows = join.columnar_rows(
        spec.core, order, layouts, engine.registry.columnar_store,
        selections=spec.all_selections, head=spec.head_vars,
        aggregates=spec.aggregates or None, counter=counter)
    return rows, counter


def _assert_memoized(engine: Engine, query: str, monkeypatch) -> list:
    """Memoized and flat kernels both return the python rows, in order,
    and the memoized one searches fewer nodes."""
    python = list(engine.execute(query, mode="generic"))
    rows, memo = _kernel(engine, query)
    assert rows == python
    assert list(engine.execute(query, mode="generic",
                               backend="columnar")) == python
    with monkeypatch.context() as patch:
        patch.setattr(join, "_KEY_LIMIT", 0)
        flat_rows, flat = _kernel(engine, query)
    assert flat_rows == python
    assert memo.search_nodes < flat.search_nodes
    return rows


def _hubs(seed: int, n: int = 60, domain: int = 12) -> dict:
    """Binary relations whose low values are hubs: many rows share a
    separator binding, so a memo has something to collapse."""
    rng = random.Random(seed)

    def edges():
        return [(min(rng.randrange(domain), rng.randrange(domain)),
                 rng.randrange(domain)) for _ in range(n)]
    return {"R": edges(), "S": edges(), "U": edges()}


PATH = "R(A,B), S(B,C), U(C,D)"


@pytest.mark.parametrize("seed", range(3))
def test_selection_firing_below_the_memo_level(seed, monkeypatch):
    # C's and D's positions are keyed on B and C; D < 5 prunes under both.
    engine = _engine(**_hubs(seed))
    for head in ("COUNT(*) AS n", "SUM(D) AS s", "MAX(C) AS m"):
        _assert_memoized(engine, f"Q(A, {head}) :- {PATH}, D < 5",
                         monkeypatch)


@pytest.mark.parametrize("seed", range(3))
def test_fold_of_a_variable_bound_above_the_memo_level(seed, monkeypatch):
    # B binds at the component's first position, above the memo levels
    # at C and D: its value is weighted by the count folded below.
    engine = _engine(**_hubs(seed))
    _assert_memoized(
        engine, f"Q(A, SUM(B) AS s, MIN(B) AS lo, MAX(B) AS hi, "
                f"COUNT(*) AS n) :- {PATH}", monkeypatch)


def test_dead_subtrees_leak_no_min_or_max():
    # A=1 reaches B=0 and B=5; B=0's C=7 has no U row, so B=0 has no
    # completion: MIN(B) is 5, and no sentinel of the dead key shows.
    engine = _engine(R=[(1, 0), (1, 5), (2, 0), (3, 5), (3, 6)],
                     S=[(0, 7), (5, 8), (6, 8), (6, 7)],
                     U=[(8, 9), (8, 4)])
    query = (f"Q(A, MIN(B) AS lo, MAX(B) AS hi, MIN(D) AS d, "
             f"MAX(D) AS e, COUNT(*) AS n) :- {PATH}")
    rows, _counter = _kernel(engine, query)
    assert rows == list(engine.execute(query, mode="generic"))
    assert rows == [(1, 5, 5, 4, 9, 2), (3, 5, 6, 4, 9, 4)]


@pytest.mark.parametrize("seed", range(3))
def test_two_variable_separator_and_its_overflow_fallback(seed, monkeypatch):
    # On the order A, B, C, D, E, D's position is keyed on (B, C), which
    # W holds, and the (A, B, C) frontier repeats it across A.
    rng = random.Random(seed)
    relations = _hubs(seed)
    relations["T"] = relations.pop("S")
    relations["W"] = [(rng.randrange(4), rng.randrange(4), rng.randrange(12))
                      for _ in range(80)]
    engine = _engine(**relations)
    query = ("Q(A, COUNT(*) AS n, SUM(E) AS s) :- "
             "R(A,B), T(A,C), W(B,C,D), U(D,E)")
    assert engine.explain(query, mode="generic").variable_order == tuple(
        "ABCDE")
    rows = _assert_memoized(engine, query, monkeypatch)
    # A store too wide for two codes in one int64 leaves that position
    # flat; the one-variable key of E's position still memoizes.
    width = len(engine.registry.columnar_store.values)
    with monkeypatch.context() as patch:
        patch.setattr(join, "_KEY_LIMIT", width)
        narrow_rows, narrow = _kernel(engine, query)
    _memo_rows, memo = _kernel(engine, query)
    assert narrow_rows == rows
    assert memo.search_nodes < narrow.search_nodes


@pytest.mark.parametrize("query", [
    f"Q(A) :- {PATH}",
    "Q(B) :- R(A,B), S(A,C), U(D,A), A == 1",
], ids=["path_existential_tail", "star_arms_keyed_on_pinned_A"])
@pytest.mark.parametrize("seed", range(3))
def test_memoized_existential_projection_tail(query, seed, monkeypatch):
    _assert_memoized(_engine(**_hubs(seed)), query, monkeypatch)


def test_zipf_hub_path_count_is_output_linear():
    # Every A reaches the hub B=0, and the hub reaches every C: the
    # (A, B, C) frontier is |R| x |S| rows, while the memo folds each C
    # and each B once.
    size = 60
    relations = {"R": [(a, 0) for a in range(size)],
                 "S": [(0, c) for c in range(size)],
                 "U": [(c, c % 7) for c in range(size)]}
    engine = _engine(**relations)
    query = f"Q(A, COUNT(*) AS n) :- {PATH}"
    rows, counter = _kernel(engine, query)
    assert rows == [(a, size) for a in range(size)]
    inputs = sum(len(edges) for edges in relations.values())
    frontier = size * size  # the join-linear frontier at C
    assert frontier >= 10 * inputs
    assert counter.search_nodes <= 2 * inputs
