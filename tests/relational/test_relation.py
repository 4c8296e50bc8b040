"""Tests for repro.relational.relation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational.relation import Relation


def small_binary_relations():
    """Hypothesis strategy: binary relations over a small integer domain."""
    pairs = st.tuples(st.integers(0, 5), st.integers(0, 5))
    return st.sets(pairs, max_size=25).map(
        lambda tuples: Relation("R", ("A", "B"), tuples)
    )


class TestConstruction:
    def test_basic(self):
        r = Relation("R", ("A", "B"), [(1, 2), (3, 4)])
        assert len(r) == 2
        assert r.name == "R"
        assert r.arity == 2

    def test_duplicates_removed(self):
        r = Relation("R", ("A",), [(1,), (1,), (2,)])
        assert len(r) == 2

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Relation("R", ("A", "B"), [(1,)])

    def test_lists_accepted_as_tuples(self):
        r = Relation("R", ("A", "B"), [[1, 2]])
        assert (1, 2) in r

    def test_empty_relation(self):
        r = Relation.empty("R", ("A", "B"))
        assert r.is_empty()
        assert len(r) == 0

    def test_from_edges(self):
        r = Relation.from_edges("E", [(1, 2), (2, 3)])
        assert r.attributes == ("A", "B")
        assert len(r) == 2


class TestEqualityAndNaming:
    def test_equality_ignores_name(self):
        a = Relation("R", ("A",), [(1,)])
        b = Relation("S", ("A",), [(1,)])
        assert a == b

    def test_equality_requires_same_schema(self):
        a = Relation("R", ("A",), [(1,)])
        b = Relation("R", ("B",), [(1,)])
        assert a != b

    def test_with_name(self):
        a = Relation("R", ("A",), [(1,)])
        b = a.with_name("S")
        assert b.name == "S"
        assert a == b

    def test_with_tuples(self):
        a = Relation("R", ("A",), [(1,)])
        b = a.with_tuples([(2,), (3,)])
        assert len(b) == 2
        assert b.name == "R"

    def test_hashable(self):
        a = Relation("R", ("A",), [(1,)])
        b = Relation("S", ("A",), [(1,)])
        assert len({a, b}) == 1


class TestOrdered:
    # Neither sorted nor in the frozenset's iteration order.
    ROWS = [(5, 1), (1, 2), (4, 0), (0, 3)]

    def test_iterates_in_the_given_order(self):
        r = Relation.ordered("R", ("A", "B"), self.ROWS)
        assert list(r) == self.ROWS

    def test_comparisons_stay_set_based(self):
        r = Relation.ordered("R", ("A", "B"), self.ROWS)
        plain = Relation("R", ("A", "B"), reversed(self.ROWS))
        assert r == plain and hash(r) == hash(plain)
        assert r.tuples == frozenset(self.ROWS)
        assert (1, 2) in r and len(r) == 4

    def test_a_repeated_row_keeps_its_first_place(self):
        r = Relation.ordered("R", ("A", "B"), self.ROWS + [(1, 2)])
        assert list(r) == self.ROWS and len(r) == 4

    def test_with_name_and_rename_keep_the_order(self):
        r = Relation.ordered("R", ("A", "B"), self.ROWS)
        assert list(r.with_name("S")) == self.ROWS
        assert list(r.rename({"A": "X"}, name="S")) == self.ROWS


class TestColumnAccess:
    def test_column(self):
        r = Relation("R", ("A", "B"), [(1, 2), (1, 3), (2, 3)])
        assert r.column("A") == {1, 2}
        assert r.column("B") == {2, 3}

    def test_columns(self):
        r = Relation("R", ("A", "B", "C"), [(1, 2, 3), (1, 2, 4)])
        assert r.columns(("A", "B")) == {(1, 2)}
        assert r.columns(("C", "A")) == {(3, 1), (4, 1)}

    def test_active_domain(self):
        r = Relation("R", ("A", "B"), [(1, 2), (3, 1)])
        assert r.active_domain() == {1, 2, 3}

    def test_tuple_as_dict(self):
        r = Relation("R", ("A", "B"), [(1, 2)])
        assert r.tuple_as_dict((1, 2)) == {"A": 1, "B": 2}

    def test_distinct_values_with_where(self):
        r = Relation("R", ("A", "B"), [(1, 2), (1, 3), (2, 4)])
        assert r.distinct_values("B", {"A": 1}) == {2, 3}
        assert r.distinct_values("B") == {2, 3, 4}


class TestOperations:
    def test_project(self):
        r = Relation("R", ("A", "B"), [(1, 2), (1, 3)])
        p = r.project(("A",))
        assert p.attributes == ("A",)
        assert len(p) == 1

    def test_project_reorders(self):
        r = Relation("R", ("A", "B"), [(1, 2)])
        assert (2, 1) in r.project(("B", "A"))

    def test_select(self):
        r = Relation("R", ("A", "B"), [(1, 2), (1, 3), (2, 3)])
        assert len(r.select({"A": 1})) == 2
        assert len(r.select({"A": 1, "B": 3})) == 1
        assert len(r.select({"A": 9})) == 0

    def test_filter(self):
        r = Relation("R", ("A", "B"), [(1, 2), (3, 4)])
        assert len(r.filter(lambda t: t["A"] + t["B"] > 5)) == 1

    def test_rename(self):
        r = Relation("R", ("A", "B"), [(1, 2)])
        renamed = r.rename({"A": "X"})
        assert renamed.attributes == ("X", "B")
        assert (1, 2) in renamed

    def test_reorder(self):
        r = Relation("R", ("A", "B"), [(1, 2)])
        assert (2, 1) in r.reorder(("B", "A"))

    def test_reorder_rejects_non_permutation(self):
        r = Relation("R", ("A", "B"), [(1, 2)])
        with pytest.raises(SchemaError):
            r.reorder(("A",))

    def test_union(self):
        a = Relation("R", ("A",), [(1,)])
        b = Relation("R", ("A",), [(2,)])
        assert len(a.union(b)) == 2

    def test_union_schema_mismatch(self):
        a = Relation("R", ("A",), [(1,)])
        b = Relation("R", ("B",), [(2,)])
        with pytest.raises(SchemaError):
            a.union(b)

    def test_difference(self):
        a = Relation("R", ("A",), [(1,), (2,)])
        b = Relation("R", ("A",), [(2,)])
        assert a.difference(b).tuples == frozenset({(1,)})

    def test_sorted_tuples_deterministic(self):
        r = Relation("R", ("A", "B"), [(2, 1), (1, 2)])
        assert r.sorted_tuples() == [(1, 2), (2, 1)]


class TestRelationProperties:
    @given(small_binary_relations())
    @settings(max_examples=50, deadline=None)
    def test_projection_never_grows(self, relation):
        assert len(relation.project(("A",))) <= len(relation)

    @given(small_binary_relations())
    @settings(max_examples=50, deadline=None)
    def test_select_then_project_consistent(self, relation):
        for value in relation.column("A"):
            selected = relation.select({"A": value})
            assert selected.column("B") == relation.distinct_values("B", {"A": value})

    @given(small_binary_relations(), small_binary_relations())
    @settings(max_examples=50, deadline=None)
    def test_union_is_commutative(self, left, right):
        assert left.union(right) == right.union(left)

    @given(small_binary_relations())
    @settings(max_examples=50, deadline=None)
    def test_double_rename_round_trips(self, relation):
        there = relation.rename({"A": "X", "B": "Y"})
        back = there.rename({"X": "A", "Y": "B"})
        assert back == relation
