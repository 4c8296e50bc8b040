"""Tests for repro.relational.operators."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins.instrumentation import OperationCounter
from repro.relational.operators import (
    difference,
    natural_join,
    project,
    rename,
    select,
    semijoin,
    union,
)
from repro.relational.relation import Relation


def rel(name, attrs, tuples):
    return Relation(name, attrs, tuples)


class TestBasicOperators:
    def test_select(self):
        r = rel("R", ("A", "B"), [(1, 2), (2, 2), (1, 3)])
        assert len(select(r, {"A": 1})) == 2

    def test_project_removes_duplicates(self):
        r = rel("R", ("A", "B"), [(1, 2), (1, 3)])
        assert len(project(r, ("A",))) == 1

    def test_rename(self):
        r = rel("R", ("A",), [(1,)])
        assert rename(r, {"A": "X"}).attributes == ("X",)

    def test_union_and_difference(self):
        a = rel("R", ("A",), [(1,), (2,)])
        b = rel("R", ("A",), [(2,), (3,)])
        assert len(union(a, b)) == 3
        assert difference(a, b).tuples == frozenset({(1,)})


class TestNaturalJoin:
    def test_join_on_shared_attribute(self):
        r = rel("R", ("A", "B"), [(1, 2), (2, 3)])
        s = rel("S", ("B", "C"), [(2, 10), (2, 11), (9, 9)])
        out = natural_join(r, s)
        assert out.attributes == ("A", "B", "C")
        assert out.tuples == frozenset({(1, 2, 10), (1, 2, 11)})

    def test_join_multiple_shared_attributes(self):
        r = rel("R", ("A", "B", "C"), [(1, 2, 3), (1, 2, 4)])
        s = rel("S", ("B", "C", "D"), [(2, 3, 7)])
        out = natural_join(r, s)
        assert out.tuples == frozenset({(1, 2, 3, 7)})

    def test_join_no_shared_attributes_is_product(self):
        r = rel("R", ("A",), [(1,), (2,)])
        s = rel("S", ("B",), [(3,)])
        out = natural_join(r, s)
        assert len(out) == 2
        assert out.attributes == ("A", "B")

    def test_join_with_empty_relation(self):
        r = rel("R", ("A", "B"), [(1, 2)])
        s = rel("S", ("B", "C"), [])
        assert natural_join(r, s).is_empty()

    def test_join_is_commutative_up_to_column_order(self):
        r = rel("R", ("A", "B"), [(1, 2), (2, 3)])
        s = rel("S", ("B", "C"), [(2, 10), (3, 11)])
        left = natural_join(r, s)
        right = natural_join(s, r).reorder(("A", "B", "C"))
        assert left == right

    def test_join_counter_records_intermediates(self):
        counter = OperationCounter()
        r = rel("R", ("A", "B"), [(1, 2)])
        s = rel("S", ("B", "C"), [(2, 3)])
        natural_join(r, s, counter=counter)
        assert counter.tuples_emitted == 1
        assert counter.hash_inserts >= 1


class TestSemijoin:
    def test_semijoin_keeps_matching(self):
        r = rel("R", ("A", "B"), [(1, 2), (3, 4)])
        s = rel("S", ("B", "C"), [(2, 9)])
        assert semijoin(r, s).tuples == frozenset({(1, 2)})

    def test_semijoin_no_shared_attributes(self):
        r = rel("R", ("A",), [(1,)])
        s = rel("S", ("B",), [(2,)])
        assert semijoin(r, s) == r
        assert semijoin(r, rel("S", ("B",), [])).is_empty()

    def test_semijoin_subset_of_left(self):
        r = rel("R", ("A", "B"), [(1, 2), (3, 4)])
        s = rel("S", ("B",), [(2,), (4,)])
        assert semijoin(r, s) == r


class TestCartesianProduct:
    def test_product(self):
        # Over disjoint schemas the natural join is the cartesian product.
        r = rel("R", ("A",), [(1,), (2,)])
        s = rel("S", ("B",), [(3,), (4,)])
        out = natural_join(r, s)
        assert out.attributes == ("A", "B")
        assert out.tuples == frozenset({(1, 3), (1, 4), (2, 3), (2, 4)})


class TestJoinProperties:
    pairs = st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=20)

    @given(pairs, pairs)
    @settings(max_examples=50, deadline=None)
    def test_join_matches_nested_loop_semantics(self, r_tuples, s_tuples):
        r = rel("R", ("A", "B"), r_tuples)
        s = rel("S", ("B", "C"), s_tuples)
        expected = {
            (a, b, c)
            for (a, b) in r_tuples
            for (b2, c) in s_tuples
            if b == b2
        }
        assert natural_join(r, s).tuples == frozenset(expected)

    @given(pairs, pairs)
    @settings(max_examples=50, deadline=None)
    def test_semijoin_equals_projection_of_join(self, r_tuples, s_tuples):
        r = rel("R", ("A", "B"), r_tuples)
        s = rel("S", ("B", "C"), s_tuples)
        via_join = natural_join(r, s).project(("A", "B"))
        assert semijoin(r, s).tuples == via_join.tuples
