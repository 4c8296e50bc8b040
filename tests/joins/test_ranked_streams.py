"""Any-k ranked enumeration at the join-core level.

Direct tests of the stage builders of the shared any-k frontier
(:func:`repro.joins.anyk.anyk`) beneath the engine: the WCOJ key levels
(``wcoj_stream(..., ranked=...)`` through both intersection engines) and
the annotated join tree's root-down nodes
(:func:`repro.joins.yannakakis.yannakakis_ranked_stream`) — exact prefix
agreement with sort-and-drain in one suite over all three, the
variable-order contract, and the error surface.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.joins.generic_join import generic_join_stream
from repro.joins.instrumentation import OperationCounter
from repro.joins.leapfrog import leapfrog_stream
from repro.joins.yannakakis import (
    join_tree_of,
    semijoin_reduce,
    yannakakis,
    yannakakis_ranked_stream,
)
from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.builder import sort_rows
from repro.query.semiring import count
from repro.query.terms import comparison
from repro.relational.database import Database
from repro.relational.relation import Relation


def random_database(seed: int, n: int = 18, rows: int = 80) -> Database:
    rng = random.Random(seed)
    rel = lambda name, cols: Relation(name, cols, {
        (rng.randrange(n), rng.randrange(n)) for _ in range(rows)
    })
    return Database([rel("R", ("a", "b")), rel("S", ("b", "c")),
                     rel("T", ("a", "c")), rel("U", ("c", "d"))])


CHAIN = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("B", "C"))])
PATH3 = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("B", "C")),
                          Atom("U", ("C", "D"))])
TRIANGLE = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("B", "C")),
                             Atom("T", ("A", "C"))])
STAR = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("A", "C")),
                         Atom("U", ("A", "D"))])


def drained(query, database, head, order_by, selections=()):
    rows = generic_join_stream(query, database, selections=selections)
    projected = sorted({tuple(row[query.variables.index(h)] for h in head)
                        for row in rows})
    return sort_rows(projected, head, order_by)


#: Every ranked stage builder, and the ones that take a cyclic query.
ALGORITHMS = ("generic", "leapfrog", "yannakakis")
WCOJ = ("generic", "leapfrog")


def ranked(algorithm, query, database, head, keys, order=(), selections=(),
           counter=None):
    """The any-k stream of one stage builder; ``order`` is the WCOJ
    variable order (the join tree fixes Yannakakis' own)."""
    if algorithm == "yannakakis":
        return yannakakis_ranked_stream(query, database, head, keys,
                                        selections=selections,
                                        counter=counter)
    stream = {"generic": generic_join_stream,
              "leapfrog": leapfrog_stream}[algorithm]
    return stream(query, database, order=order, head=head, ranked=keys,
                  selections=selections, counter=counter)


class TestRankedMatchesDrain:
    """Every stage builder of the shared any-k frontier yields the
    sort-and-drain rows, row for row."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("query, order, head, keys", [
        (CHAIN, ("C", "A", "B"), ("A", "B", "C"), [("C", True), ("A", False)]),
        (PATH3, ("C", "A", "B", "D"), ("A", "B", "C", "D"),
         [("C", True), ("A", False)]),
    ], ids=["chain", "path"])
    def test_full_head_matches_drain(self, algorithm, seed, query, order,
                                     head, keys):
        database = random_database(seed)
        got = list(ranked(algorithm, query, database, head, keys, order))
        assert got == drained(query, database, head, keys)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("order, head, keys", [
        (("A", "C", "B", "D"), ("A", "C"), [("A", False)]),
        (("D", "A", "B", "C"), ("A", "D"), [("D", False), ("A", True)]),
    ], ids=["one-key", "two-keys"])
    def test_projected_head_deduplicates(self, algorithm, seed, order, head,
                                         keys):
        database = random_database(seed)
        got = list(ranked(algorithm, PATH3, database, head, keys, order))
        assert got == drained(PATH3, database, head, keys)

    @pytest.mark.parametrize("algorithm", WCOJ)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cyclic_query_matches_drain(self, algorithm, seed):
        database = random_database(seed)
        head = ("A", "B", "C")
        keys = [("B", False), ("C", True)]
        got = list(ranked(algorithm, TRIANGLE, database, head, keys,
                          ("B", "C", "A")))
        assert got == drained(TRIANGLE, database, head, keys)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed, query, order, keys, selection", [
        (5, CHAIN, ("B", "A", "C"), [("B", True)], comparison("A", "<", "C")),
        (3, PATH3, ("B", "A", "C", "D"), [("B", False)],
         comparison("A", "<", "D")),
    ], ids=["chain", "path"])
    def test_cross_node_selection_filters_completions(self, algorithm, seed,
                                                      query, order, keys,
                                                      selection):
        database = random_database(seed)
        head = query.variables
        got = list(ranked(algorithm, query, database, head, keys, order,
                          [selection]))
        rows = [r for r in generic_join_stream(query, database)
                if selection.evaluate(dict(zip(head, r)))]
        assert got == sort_rows(sorted(rows), head, keys)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_atom_query(self, algorithm):
        database = random_database(4)
        q = ConjunctiveQuery([Atom("R", ("A", "B"))])
        got = list(ranked(algorithm, q, database, ("A", "B"), [("B", True)],
                          ("B", "A")))
        expected = sort_rows(sorted(database.get("R").tuples),
                             ("A", "B"), [("B", True)])
        assert got == expected

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("query", [CHAIN, PATH3], ids=["chain", "path"])
    def test_no_complete_assignment_yields_nothing(self, algorithm, query):
        database = Database([
            Relation("R", ("a", "b"), [(1, 2)]),
            Relation("S", ("b", "c"), [(9, 9)]),
            Relation("U", ("c", "d"), [(9, 9)]),
        ])
        assert list(ranked(algorithm, query, database, query.variables,
                           [("A", False)], query.variables)) == []

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_prefix_is_lazy(self, algorithm):
        database = random_database(6)
        head = ("A", "B", "C")
        keys = [("A", False)]
        stream = ranked(algorithm, CHAIN, database, head, keys,
                        ("A", "B", "C"))
        want = drained(CHAIN, database, head, keys)
        got = [next(stream) for _ in range(3)]
        stream.close()
        assert got == want[:3]

    # Frontier levels whose siblings are already in priority order push
    # one sibling at a time; a hand-given order that binds a later key
    # first pushes every candidate of its level (Yannakakis' buckets are
    # always in priority order).  Either way any-k is the drain, row for
    # row, at every LIMIT.
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("keys, order, head, selections", [
        ([("A", False), ("C", True)], ("A", "C", "B", "D"),
         ("A", "B", "C", "D"), ()),
        ([("C", True), ("A", True)], ("C", "A", "B", "D"),
         ("A", "C"), ()),
        ([("B", True), ("D", False)], ("B", "D", "A", "C"),
         ("A", "B", "D"), [comparison("A", "<", "C")]),
        ([("C", False), ("A", True)], ("B", "C", "A", "D"),
         ("A", "C", "D"), [comparison("B", "==", 3)]),
        ([("D", False), ("A", True)], ("A", "D", "B", "C"),
         ("A", "B", "C", "D"), ()),  # keys out of ORDER BY sequence
        ([("C", True), ("B", False), ("A", False)], ("A", "B", "C", "D"),
         ("A", "B", "C"), [comparison("A", "<", "D")]),
    ])
    @pytest.mark.parametrize("limit", [None, 0, 1, 7])
    def test_lazy_and_eager_frontiers_match_drain(self, algorithm, seed,
                                                  keys, order, head,
                                                  selections, limit):
        database = random_database(seed, n=8)
        want = drained(PATH3, database, head, keys, selections)
        got = list(itertools.islice(
            ranked(algorithm, PATH3, database, head, keys, order,
                   selections), limit))
        assert got == want[:limit]


class TestWcojRanked:
    def test_lazy_frontier_does_no_more_work_than_the_eager_one(self):
        # The hand-given order binds A (key 1) before D (key 0): A's level
        # pushes eagerly.  With the keys in ORDER BY sequence both levels
        # push lazily, and the first row costs a fraction of the work.
        database = random_database(3, n=30, rows=200)
        keys = [("D", True), ("A", False)]
        work = {}
        for order in (("D", "A", "B", "C"), ("A", "D", "B", "C")):
            counter = OperationCounter()
            stream = generic_join_stream(PATH3, database, order=order,
                                         ranked=keys, counter=counter)
            first = next(stream)
            stream.close()
            work[order] = (first, counter.total())
        lazy, eager = work[("D", "A", "B", "C")], work[("A", "D", "B", "C")]
        assert lazy[0] == eager[0]
        assert lazy[1] < eager[1]


class TestWcojRankedContract:
    def test_keys_must_be_query_variables(self):
        database = random_database(0)
        with pytest.raises(ValueError, match="not query variables"):
            list(generic_join_stream(CHAIN, database,
                                     order=("A", "B", "C"),
                                     head=("A", "B"), ranked=[("Z", False)]))

    def test_keys_must_be_head_variables(self):
        database = random_database(0)
        with pytest.raises(QueryError, match="not head variables"):
            list(generic_join_stream(CHAIN, database,
                                     order=("C", "A", "B"),
                                     head=("A", "B"), ranked=[("C", False)]))

    def test_order_must_lead_with_the_keys(self):
        database = random_database(0)
        with pytest.raises(QueryError, match="sort keys as a prefix"):
            list(generic_join_stream(CHAIN, database,
                                     order=("A", "B", "C"),
                                     head=("A", "B"), ranked=[("B", False)]))

    def test_ranked_rejects_aggregates(self):
        database = random_database(0)
        with pytest.raises(QueryError, match="aggregate"):
            list(generic_join_stream(CHAIN, database,
                                     order=("A", "B", "C"), head=("A",),
                                     aggregates=[count()],
                                     ranked=[("A", False)]))


class TestYannakakisRanked:
    def test_cyclic_query_raises(self):
        database = random_database(0)
        with pytest.raises(QueryError, match="alpha-acyclic"):
            list(yannakakis_ranked_stream(TRIANGLE, database,
                                          ("A", "B", "C"), [("A", False)]))

    def test_needs_a_sort_key(self):
        database = random_database(0)
        with pytest.raises(QueryError, match="ORDER BY"):
            list(yannakakis_ranked_stream(CHAIN, database,
                                          ("A", "B", "C"), []))

    def test_keys_must_be_head_variables(self):
        # A key outside the head would rank one head row under several
        # keys and emit it once per key class.
        database = Database([
            Relation("R", ("a", "b"), [(1, 1), (1, 2), (2, 1)]),
            Relation("S", ("b", "c"), [(1, 5), (2, 6)]),
        ])
        with pytest.raises(QueryError, match="not head variables"):
            list(yannakakis_ranked_stream(CHAIN, database, ("A",),
                                          [("C", False)]))


def ranked_prefix(query, database, limit=None):
    """The first ``limit`` rows of a detail-counted ranked stream and its
    counter (closed early, as a LIMIT closes it)."""
    counter = OperationCounter(detail=True)
    stream = yannakakis_ranked_stream(query, database, ("A", "B", "C", "D"),
                                      [("D", True), ("A", False)],
                                      counter=counter)
    rows = list(itertools.islice(stream, limit))
    stream.close()
    return rows, counter


def with_dangling(query, contents):
    """The relations plus one tuple at the join-tree root and at every
    leaf whose values join nothing."""
    tree = join_tree_of(query)
    stranded = {tree.root} | {node for node in tree.order
                              if not tree.children[node]}
    return Database([
        Relation(name, ("x", "y"),
                 set(rows) | ({(100 + i, 200 + i)} if name in stranded
                              else set()))
        for i, (name, rows) in enumerate(sorted(contents.items()))
    ])


class TestNoReduction:
    def test_ranked_runs_no_semijoin_pass(self):
        database = random_database(0)
        rows, counter = ranked_prefix(PATH3, database)
        labels = {label.split(".")[0] for label in counter.breakdown}
        assert "semijoin" not in labels
        assert "messages" in labels
        assert rows == drained(PATH3, database, ("A", "B", "C", "D"),
                               [("D", True), ("A", False)])

    pairs = st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    max_size=14)

    @pytest.mark.parametrize("query", [PATH3, STAR], ids=["path", "star"])
    @given(r=pairs, s=pairs, u=pairs, limit=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_dangling_tuples_change_no_row_and_no_pop(self, query, r, s, u,
                                                      limit):
        database = with_dangling(query, {"R": r, "S": s, "U": u})
        reduced = semijoin_reduce(query, database)
        reduced_db = Database([
            Relation(atom.relation, ("x", "y"),
                     reduced[query.edge_key(i)].tuples)
            for i, atom in enumerate(query.atoms)
        ])
        for prefix in (limit, None):
            rows, counter = ranked_prefix(query, database, prefix)
            want, want_counter = ranked_prefix(query, reduced_db, prefix)
            assert rows == want
            assert (counter.breakdown.get("frontier.search_nodes")
                    == want_counter.breakdown.get("frontier.search_nodes"))
