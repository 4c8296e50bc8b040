"""Cross-engine, cross-mode agreement for in-recursion aggregation.

The two aggregate execution modes — in-recursion semiring elimination
(WCOJ recursion / Yannakakis in-pass) and stream-fold over the join — must
produce identical grouped results on every executor, for acyclic and
cyclic queries, with and without selections, for every registered
aggregate.  Ground truth is the naive nested-loop join folded in Python.
"""

import random

import pytest

from repro.engine import Engine
from repro.joins.instrumentation import OperationCounter
from repro.joins.naive import nested_loop_stream
from repro.query.builder import Query
from repro.query.semiring import fold_aggregates
from repro.relational.database import Database
from repro.relational.relation import Relation

MODES = ("naive", "binary", "generic", "leapfrog", "auto")


def reference(query, database):
    """Sorted brute-force aggregate rows (join in full, fold in Python)."""
    spec = Query.coerce(query)
    core = spec.core
    rows = list(nested_loop_stream(core, database,
                                   selections=spec.all_selections))
    return sorted(fold_aggregates(rows, core.variables, spec.head_vars,
                                  spec.aggregates))


def random_database(seed: int, empty: tuple[str, ...] = ()) -> Database:
    """Four random binary relations; those named in ``empty`` get no rows."""
    rng = random.Random(seed)
    def rel(name, attrs, n, dom):
        rows = {tuple(rng.randrange(dom) for _ in attrs) for _ in range(n)}
        return Relation(name, attrs, () if name in empty else rows)
    return Database([
        rel("R", ("x", "y"), 40, 8),
        rel("S", ("y", "z"), 45, 8),
        rel("T", ("x", "z"), 40, 8),
        rel("U", ("z", "w"), 30, 8),
    ])


ACYCLIC_QUERIES = (
    "Q(A, COUNT(*)) :- R(A,B), S(B,C)",
    "Q(A, SUM(C) AS s, MIN(B) AS m) :- R(A,B), S(B,C), U(C,D)",
    "Q(AVG(D) AS a) :- S(B,C), U(C,D)",
    "Q(B, MAX(D) AS mx, COUNT(*)) :- R(A,B), S(B,C), U(C,D), A < D",
    "Q(A, AVG(C) AS ac) :- R(A,B), S(B,C), B != 3",
    # MIN/MAX whose variable sits at the far end of a path: the atoms
    # without the designated variable send value-free (tropical ONE)
    # annotations up the join tree, exercising ONE ⊕ ONE in projections.
    "Q(MAX(D) AS mx) :- R(A,B), S(B,C), U(C,D)",
    "Q(D, MIN(A) AS mn) :- R(A,B), S(B,C), U(C,D)",
)

CYCLIC_QUERIES = (
    "Q(A, COUNT(*)) :- R(A,B), S(B,C), T(A,C)",
    "Q(COUNT(*), SUM(A) AS s) :- R(A,B), S(B,C), T(A,C)",
    "Q(A, B, MIN(C) AS m, AVG(C) AS a) :- R(A,B), S(B,C), T(A,C), A != 2",
)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("query", ACYCLIC_QUERIES + CYCLIC_QUERIES)
class TestModesAgree:
    def test_every_executor_and_mode_matches_brute_force(self, query, seed):
        database = random_database(seed)
        expected = reference(query, database)
        for mode in MODES:
            for aggregate_mode in ("auto", "recursion", "fold"):
                if mode in ("naive", "binary") and aggregate_mode == "recursion":
                    continue  # materializing strategies cannot recurse
                engine = Engine(database=database, cache_results=False)
                result = engine.execute(query, mode=mode,
                                        aggregate_mode=aggregate_mode)
                assert sorted(result.tuples) == expected, (
                    f"{mode}/{aggregate_mode} disagrees on {query}"
                )


#: Yannakakis-only extras: a ``== constant`` selection (pushed into the
#: scan as an index seek before the annotated pass).
YANNAKAKIS_QUERIES = ACYCLIC_QUERIES + (
    "Q(A, SUM(C) AS s, COUNT(*)) :- R(A,B), S(B,C), U(C,D), B == 3",
)


@pytest.mark.parametrize("query", YANNAKAKIS_QUERIES)
@pytest.mark.parametrize("aggregate_mode", ["recursion", "fold"])
@pytest.mark.parametrize("seed, empty", [(3, ()), (0, ()), (7, ()),
                                         (3, ("S",))])
def test_yannakakis_modes_agree_on_acyclic(query, aggregate_mode, seed,
                                           empty):
    database = random_database(seed, empty)
    engine = Engine(database=database, cache_results=False)
    result = engine.execute(query, mode="yannakakis",
                            aggregate_mode=aggregate_mode)
    assert sorted(result.tuples) == reference(query, database)


def test_in_pass_yannakakis_runs_no_semijoin_pass():
    # The annotated pass's message joins drop dangling tuples themselves:
    # a forced in-pass run does no semijoin work at all.
    database = random_database(3)
    query = "Q(A, SUM(C) AS s, MIN(B) AS m) :- R(A,B), S(B,C), U(C,D)"
    counter = OperationCounter(detail=True)
    engine = Engine(database=database, cache_results=False)
    result = engine.execute(query, mode="yannakakis",
                            aggregate_mode="recursion", counter=counter)
    assert sorted(result.tuples) == reference(query, database)
    assert counter.breakdown
    assert not [label for label in counter.breakdown
                if label.startswith("semijoin.")]


def test_streamed_aggregate_rows_match_execute():
    database = random_database(11)
    engine = Engine(database=database)
    query = "Q(A, COUNT(*), AVG(C) AS ac) :- R(A,B), S(B,C)"
    streamed = sorted(engine.stream(query, mode="generic",
                                    aggregate_mode="recursion"))
    executed = sorted(engine.execute(query).tuples)
    assert streamed == executed


def test_min_max_over_string_columns_in_every_mode():
    # The tropical product's identity must pass non-numeric values through
    # (Yannakakis in-pass annotations), not do arithmetic with them.
    database = Database([
        Relation("R", ("a", "b"), [(1, 2), (2, 3)]),
        Relation("S", ("b", "c"), [(2, "apple"), (3, "pear"), (3, "fig")]),
    ])
    query = "Q(A, MIN(C) AS mn, MAX(C) AS mx) :- R(A,B), S(B,C)"
    expected = [(1, "apple", "apple"), (2, "fig", "pear")]
    for mode, kwargs in (("naive", {}), ("generic", {}), ("leapfrog", {}),
                         ("yannakakis", {"aggregate_mode": "recursion"}),
                         ("yannakakis", {"aggregate_mode": "fold"})):
        engine = Engine(database=database, cache_results=False)
        result = engine.execute(query, mode=mode, **kwargs)
        assert sorted(result.tuples) == expected, mode


def test_group_free_empty_join_yields_identity_row_everywhere():
    database = Database([
        Relation("R", ("x", "y"), []),
        Relation("S", ("y", "z"), [(1, 2)]),
    ])
    query = "Q(COUNT(*), SUM(A) AS s, MIN(C) AS m, AVG(C) AS a) :- R(A,B), S(B,C)"
    expected = [(0, 0, None, None)]
    for mode in MODES:
        engine = Engine(database=database, cache_results=False)
        assert sorted(engine.execute(query, mode=mode).tuples) == expected
    engine = Engine(database=database, cache_results=False)
    assert sorted(engine.execute(query, mode="yannakakis",
                                 aggregate_mode="recursion").tuples) == expected
