"""Randomized cross-backend agreement: columnar must be bit-identical.

The pure-Python executors are the reference oracle.  For every sampled
instance and query shape the columnar backend must return the *same
tuples in the same order* — row sets, aggregate values, and the
deterministic enumeration order all pinned, so a backend switch can
never change an answer.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.executors import executor_for
from repro.engine.session import Engine
from repro.joins.instrumentation import OperationCounter
from repro.query.builder import Query
from repro.query.variable_order import pushdown_order
from repro.relational.relation import Relation

pytest.importorskip("numpy")

from repro.columnar.executor import ColumnarExecutor  # noqa: E402


def _random_relation(rng: random.Random, name: str, arity: int,
                     n: int, domain: int) -> Relation:
    attrs = tuple(f"c{i}" for i in range(arity))
    rows = sorted({tuple(rng.randrange(domain) for _ in range(arity))
                   for _ in range(n)})
    return Relation(name, attrs, rows)


def _assert_backends_agree(engine: Engine, query: str, **kwargs) -> None:
    """Execute under both backends (result cache off) and compare exactly.

    Output order is a property of the resolved *strategy* (binary plans
    enumerate differently from WCOJ plans, backend or not), so the
    bit-identity contract is per strategy: with the strategy held fixed,
    the columnar backend must reproduce the python run exactly — rows,
    values, and enumeration order.  Auto dispatch may steer a columnar
    plan onto a different (columnar-capable) strategy than the python
    plan; there the row multisets and aggregate values still agree.
    """
    for mode in ("generic", "leapfrog"):
        python = list(engine.execute(query, mode=mode, **kwargs).tuples)
        columnar = list(engine.execute(query, mode=mode, backend="columnar",
                                       **kwargs).tuples)
        assert columnar == python, \
            f"backend mismatch for {query!r} under {mode}"
    auto_python = list(engine.execute(query, **kwargs).tuples)
    auto_columnar = list(engine.execute(query, backend="auto",
                                        **kwargs).tuples)
    assert sorted(auto_columnar) == sorted(auto_python), \
        f"auto backend row-set mismatch for {query!r}"


QUERY_SHAPES = [
    # Full enumeration, projections (early-distinct and seen-set shapes),
    # constants in atoms, selections, and GROUP BY semiring aggregates.
    "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
    "Q(A,B) :- R(A,B), S(B,C)",
    "Q(A) :- R(A,B), S(B,C), T(A,C)",
    "Q(B) :- R(A,B)",
    "Q(C,A) :- R(A,B), S(B,C)",
    "Q(A,B) :- R(A,B), S(B,2)",
    "Q(A) :- R(A,B), S(B,C), A < B",
    "Q(A, COUNT(*) AS n) :- R(A,B), S(B,C)",
    "Q(A, SUM(C) AS s) :- R(A,B), S(B,C)",
    "Q(A, MIN(B) AS lo, MAX(C) AS hi) :- R(A,B), S(B,C)",
    "Q(COUNT(*) AS n) :- R(A,B), S(B,C), T(A,C)",
    "Q(B, COUNT(*) AS n) :- R(A,B), T(A,C)",
]


@pytest.mark.parametrize("seed", range(6))
def test_randomized_agreement(seed):
    rng = random.Random(seed)
    n = rng.choice([0, 1, 5, 40, 120])
    domain = rng.choice([2, 5, 12])
    engine = Engine(relations=[
        _random_relation(rng, "R", 2, n, domain),
        _random_relation(rng, "S", 2, max(n // 2, 0), domain),
        _random_relation(rng, "T", 2, n, domain),
    ], cache_results=False)
    for query in QUERY_SHAPES:
        _assert_backends_agree(engine, query)


def test_empty_and_singleton_relations():
    engine = Engine(relations=[
        Relation("R", ("X", "Y"), []),
        Relation("S", ("X", "Y"), [(1, 2)]),
        Relation("T", ("X", "Y"), [(1, 2), (2, 1)]),
    ], cache_results=False)
    for query in QUERY_SHAPES:
        _assert_backends_agree(engine, query)
    # Group-free aggregates over an empty join yield the identity row.
    empty_agg = "Q(COUNT(*) AS n) :- R(A,B), S(B,C)"
    _assert_backends_agree(engine, empty_agg)


def test_string_domains_agree():
    rng = random.Random(11)
    words = ["ant", "bee", "cat", "dog", "eel", "fox"]
    rows = sorted({(rng.choice(words), rng.choice(words))
                   for _ in range(25)})
    engine = Engine(relations=[
        Relation("R", ("X", "Y"), rows),
        Relation("S", ("X", "Y"), rows),
    ], cache_results=False)
    for query in ["Q(A,B,C) :- R(A,B), S(B,C)",
                  "Q(A) :- R(A,B), S(B,C)",
                  "Q(A, COUNT(*) AS n) :- R(A,B), S(B,C)",
                  "Q(A, MIN(C) AS lo) :- R(A,B), S(B,C)"]:
        _assert_backends_agree(engine, query)


def test_float_domains_agree():
    rng = random.Random(13)
    rows = sorted({(round(rng.uniform(0, 3), 2), round(rng.uniform(0, 3), 2))
                   for _ in range(30)})
    engine = Engine(relations=[
        Relation("R", ("X", "Y"), rows),
        Relation("S", ("X", "Y"), rows),
    ], cache_results=False)
    for query in ["Q(A,B,C) :- R(A,B), S(B,C)",
                  "Q(A, MAX(C) AS hi) :- R(A,B), S(B,C)",
                  # Float SUM degrades to the python fold at run time
                  # (exactness guard) — transparently, same answer.
                  "Q(A, SUM(C) AS s) :- R(A,B), S(B,C)"]:
        _assert_backends_agree(engine, query)


def test_self_join_agreement():
    rng = random.Random(17)
    rows = sorted({(rng.randrange(8), rng.randrange(8)) for _ in range(30)})
    engine = Engine(relations=[Relation("E", ("X", "Y"), rows)],
                    cache_results=False)
    for query in ["Q(A,B,C) :- E(A,B), E(B,C), E(A,C)",
                  "Q(A) :- E(A,B), E(B,C)",
                  "Q(A, COUNT(*) AS n) :- E(A,B), E(B,C)"]:
        _assert_backends_agree(engine, query)


def test_stream_order_parity():
    rng = random.Random(19)
    rows = sorted({(rng.randrange(10), rng.randrange(10))
                   for _ in range(40)})
    engine = Engine(relations=[
        Relation("R", ("X", "Y"), rows),
        Relation("S", ("X", "Y"), rows),
        Relation("T", ("X", "Y"), rows),
    ], cache_results=False)
    for query in ["Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
                  "Q(A) :- R(A,B), S(B,C)"]:
        assert (list(engine.stream(query, backend="columnar"))
                == list(engine.stream(query)))


def test_forced_strategies_agree():
    rng = random.Random(23)
    rows = sorted({(rng.randrange(9), rng.randrange(9)) for _ in range(35)})
    engine = Engine(relations=[
        Relation("R", ("X", "Y"), rows),
        Relation("S", ("X", "Y"), rows),
        Relation("T", ("X", "Y"), rows),
    ], cache_results=False)
    query = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"
    for mode in ("generic", "leapfrog"):
        python = list(engine.execute(query, mode=mode).tuples)
        columnar = list(engine.execute(query, mode=mode,
                                       backend="columnar").tuples)
        assert columnar == python, f"mismatch under forced {mode}"


STRICT_PROJECTIONS = [
    "Q(C) :- R(1,B), S(B,C)",
    "Q(D) :- R(1,B), S(B,C), T(C,D)",
    "Q(C) :- R(1,B), R(B,C)",
    "Q(A) :- R(A,B), S(B,C)",
]


@pytest.mark.parametrize("query", STRICT_PROJECTIONS)
def test_strict_projections_agree_under_both_orders(query):
    """Dispatch chooses between two orders for a strict projection:
    head-first (existential tail) and guarded (every full row, each head
    tuple kept at its first occurrence).  The kernel runs both — no
    fallback — with the python recursion's rows in its order, and the
    forced and auto plans agree across backends whichever order won."""
    # Every shape here reaches some head tuple along two paths: the
    # guarded order's seen-set has duplicates to drop.
    rng = random.Random(29)
    rows = sorted({(rng.randrange(9), rng.randrange(9)) for _ in range(35)})
    engine = Engine(relations=[Relation(name, ("X", "Y"), rows)
                               for name in "RST"], cache_results=False)
    spec = Query.coerce(query)
    fixed = spec.fixed_variables
    head_first = pushdown_order(spec.core, fixed=fixed,
                                leading=spec.head_vars)
    guarded = pushdown_order(spec.core, fixed=fixed)
    assert head_first != guarded
    kernel = ColumnarExecutor()
    for order in (head_first, guarded):
        for strategy in ("generic", "leapfrog"):
            python = list(executor_for(strategy).stream(
                spec, engine.database, order, registry=engine.registry))
            counter = OperationCounter()
            columnar = kernel._columnar_rows(spec, engine.database, order,
                                             engine.registry, counter)
            assert columnar == python, (order, strategy)
            assert counter.tuples_emitted == len(columnar)
    _assert_backends_agree(engine, query)


def test_agreement_across_mutations():
    """Layout invalidation: results track data versions exactly."""
    engine = Engine(relations=[
        Relation("R", ("X", "Y"), [(1, 2), (2, 3)]),
        Relation("S", ("X", "Y"), [(2, 3), (3, 1)]),
    ], cache_results=False)
    query = "Q(A,B,C) :- R(A,B), S(B,C)"
    _assert_backends_agree(engine, query)
    engine.insert("R", [(3, 3), (0, 2)])
    _assert_backends_agree(engine, query)
    engine.apply_delta("S", inserts=[(3, 9)], deletes=[(2, 3)])
    _assert_backends_agree(engine, query)
