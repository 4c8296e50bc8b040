"""Differential tests where a per-stream trie cursor could go stale.

``wcoj_stream`` keeps one cursor per atom (slot d = the trie node reached
by the atom's first d bound variables) and seats slot d from slot d-1 when
level d is enumerated.  That is sound as long as bindings come from the
level above; these tests drive the places where they do not, or where two
streams share the tries, and compare with :mod:`repro.joins.naive`.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.engine import Engine
from repro.joins.generic_join import generic_join_stream, resolve_tries
from repro.joins.leapfrog import leapfrog_stream
from repro.joins.naive import nested_loop_stream
from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.builder import sort_rows
from repro.query.semiring import count
from repro.query.terms import Constant, comparison
from repro.relational.database import Database
from repro.relational.relation import Relation

STREAMS = [generic_join_stream, leapfrog_stream]


def random_relation(rng, name, columns, domain, rows):
    return Relation(name, columns, {
        tuple(rng.randrange(domain) for _ in columns) for _ in range(rows)})


def deep_database(seed: int) -> Database:
    """Ternary relations: every atom's cursor has a slot 2 seated from a
    slot 1, which is what a stale cursor would corrupt."""
    rng = random.Random(seed)
    return Database([
        random_relation(rng, "R", ("a", "b", "c"), 6, 90),
        random_relation(rng, "S", ("b", "c", "d"), 6, 90),
        random_relation(rng, "T", ("a", "d"), 6, 25),
    ])


DEEP = ConjunctiveQuery([Atom("R", ("A", "B", "C")), Atom("S", ("B", "C", "D")),
                         Atom("T", ("A", "D"))])


def naive_rows(query, database, head=None, selections=()):
    head = head or query.variables
    at = [query.variables.index(h) for h in head]
    return sorted({tuple(row[i] for i in at) for row in
                   nested_loop_stream(query, database, selections=selections)})


class TestAnyKHeapPops:
    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("seed", range(4))
    def test_pops_at_mixed_depths_reseat_the_cursors(self, stream, seed):
        # Three sort keys, and a variable order that is not the key order:
        # the frontier holds prefixes of depth 1, 2 and 3 at once, and the
        # best key after a finished B-class often lies under another A,
        # so consecutive pops jump between unrelated subtrees.
        database = deep_database(seed)
        head = ("A", "B", "C", "D")
        keys = [("B", True), ("A", False), ("C", True)]
        expected = sort_rows(naive_rows(DEEP, database, head), head, keys)
        for order in (("A", "B", "C", "D"), ("C", "A", "B", "D"),
                      ("B", "A", "C", "D")):
            got = list(stream(DEEP, database, order=order, head=head,
                              ranked=keys))
            assert got == expected

    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("order", [("B", "A", "C", "D"),
                                       ("A", "B", "C", "D")])
    @pytest.mark.parametrize("descending", [False, True])
    def test_shallower_pop_reseats_below_for_its_sibling(self, stream, seed,
                                                         order, descending):
        # B, A, C binds the keys in ORDER BY sequence: every level pushes
        # one sibling at a time.  A, B, C pushes every A at once and the
        # rest lazily.  Either way, after the last class under one prefix
        # the next pop is shallower than the one before it, and popping
        # it pushes its own sibling: that sibling's best suffix is walked
        # from cursors the deeper pops left under another prefix.
        database = deep_database(seed)
        head = ("A", "B", "C", "D")
        keys = [("B", descending), ("A", False), ("C", not descending)]
        expected = sort_rows(naive_rows(DEEP, database, head), head, keys)
        got = list(stream(DEEP, database, order=order, head=head,
                          ranked=keys))
        assert got == expected
        assert len({row[1] for row in got}) > 2  # pops moved between Bs

    @pytest.mark.parametrize("seed", range(3))
    def test_projected_head_with_existential_tail(self, seed):
        database = deep_database(seed)
        head = ("B", "A")
        keys = [("B", False), ("A", True)]
        got = list(generic_join_stream(DEEP, database,
                                       order=("B", "A", "C", "D"),
                                       head=head, ranked=keys))
        assert got == sort_rows(naive_rows(DEEP, database, head), head, keys)


class TestMemoAndComponents:
    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("seed", range(3))
    def test_component_folds_over_non_contiguous_positions(self, stream, seed):
        # Two two-variable arms below A; the order interleaves them, so
        # each component fold walks positions (1, 3) and (2, 4) and every
        # memo hit skips levels another arm's cursor still points into.
        rng = random.Random(seed)
        database = Database([
            random_relation(rng, "R1", ("a", "b"), 7, 30),
            random_relation(rng, "R2", ("b", "c"), 7, 30),
            random_relation(rng, "R3", ("a", "d"), 7, 30),
            random_relation(rng, "R4", ("d", "e"), 7, 30),
        ])
        query = ConjunctiveQuery([
            Atom("R1", ("A", "B")), Atom("R2", ("B", "C")),
            Atom("R3", ("A", "D")), Atom("R4", ("D", "E"))])
        expected: dict = {}
        for row in nested_loop_stream(query, database):
            expected[row[0]] = expected.get(row[0], 0) + 1
        for factorize in (True, False):
            got = list(stream(query, database, order=("A", "B", "D", "C", "E"),
                              head=("A",), aggregates=[count()],
                              factorize=factorize))
            assert sorted(got) == sorted(expected.items())

    @pytest.mark.parametrize("seed", range(3))
    def test_existential_tail_memo_on_deep_atoms(self, seed):
        database = deep_database(seed)
        for head, order in ((("B",), ("B", "C", "A", "D")),
                            (("A", "B"), ("A", "B", "D", "C"))):
            got = list(generic_join_stream(DEEP, database, order=order,
                                           head=head))
            assert sorted(got) == naive_rows(DEEP, database, head)


class TestPinnedLevels:
    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("position", range(4))
    def test_pinned_level_at_every_depth(self, stream, position):
        database = deep_database(5)
        variable = ("A", "B", "C", "D")[position]
        for constant in range(6):
            selections = [comparison(variable, "==", constant)]
            got = list(stream(DEEP, database, order=("A", "B", "C", "D"),
                              selections=selections))
            assert sorted(got) == naive_rows(DEEP, database,
                                             selections=selections)

    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("constant", [99, -1, "x", None, (1, 2)])
    def test_absent_or_unorderable_constant_yields_no_rows(self, stream,
                                                           constant):
        database = deep_database(5)
        for variable in ("A", "C", "D"):
            selections = [comparison(variable, "==", Constant(constant))]
            assert list(stream(DEEP, database, order=("A", "B", "C", "D"),
                               selections=selections)) == []


class TestSharedTries:
    def test_abandoned_stream_then_a_full_one(self):
        database = deep_database(7)
        order = ("A", "B", "C", "D")
        tries, _orders = resolve_tries(DEEP, database, order)
        abandoned = generic_join_stream(DEEP, database, order=order,
                                        tries=tries)
        assert len(list(itertools.islice(abandoned, 3))) == 3
        abandoned.close()
        full = list(generic_join_stream(DEEP, database, order=order,
                                        tries=tries))
        assert sorted(full) == naive_rows(DEEP, database)

    @pytest.mark.parametrize("text", [
        "Q(A,B,C,D) :- R(A,B,C), S(B,C,D), T(A,D)",
        "Q(A,B,C,D) :- R(A,B,C), S(B,C,D), T(A,D) ORDER BY B DESC, A LIMIT 50",
    ])
    def test_two_engine_streams_consumed_alternately(self, text):
        database = deep_database(8)
        engine = Engine(database=database, cache_results=False)
        expected = list(engine.stream(text, mode="generic"))
        builds = engine.registry.builds
        first = engine.stream(text, mode="generic")
        second = engine.stream(text, mode="generic")
        # The second stream starts mid-way through the first, then they
        # alternate: one registry, one set of tries, two sets of cursors.
        got_first = list(itertools.islice(first, 5))
        got_second = []
        for a, b in itertools.zip_longest(first, second):
            if a is not None:
                got_first.append(a)
            if b is not None:
                got_second.append(b)
        assert got_first == expected
        assert got_second == expected
        assert engine.registry.builds == builds  # the same tries, shared
        unordered = "Q(A,B,C,D) :- R(A,B,C), S(B,C,D), T(A,D)"
        assert sorted(engine.stream(unordered, mode="generic")) == naive_rows(
            DEEP, database)
