"""Tests for repro.relational.statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational.operators import natural_join
from repro.relational.relation import Relation
from repro.relational.statistics import (
    DegreeCatalog,
    cardinality,
    degree,
    join_size,
    max_degree,
)


@pytest.fixture
def orders():
    # (customer, order, item) with customer 1 having two orders.
    return Relation("Orders", ("customer", "order", "item"),
                    [(1, 10, "a"), (1, 11, "b"), (2, 12, "a"), (2, 12, "b")])


class TestDegree:
    def test_cardinality(self, orders):
        assert cardinality(orders) == 4

    def test_degree_single_key(self, orders):
        assert degree(orders, ("customer",), ("order",)) == 2
        assert degree(orders, ("order",), ("item",)) == 2
        assert degree(orders, ("order",), ("customer",)) == 1

    def test_degree_empty_key_counts_distinct(self, orders):
        assert degree(orders, (), ("customer",)) == 2
        assert degree(orders, (), ("customer", "order", "item")) == 4

    def test_degree_composite_key(self, orders):
        assert degree(orders, ("customer", "order"), ("item",)) == 2

    def test_degree_empty_relation(self):
        empty = Relation("R", ("A", "B"), [])
        assert degree(empty, ("A",), ("B",)) == 0

    def test_degree_requires_y(self, orders):
        with pytest.raises(SchemaError):
            degree(orders, ("customer",), ())

    def test_degree_unknown_attribute(self, orders):
        with pytest.raises(SchemaError):
            degree(orders, ("nope",), ("item",))

    def test_max_degree(self, orders):
        assert max_degree(orders, "customer") == 2
        assert max_degree(Relation("R", ("A",), []), "A") == 0

    def test_is_functional_dependency(self, orders):
        # A relation satisfies the FD X -> Y iff deg(Y | X) <= 1.
        assert degree(orders, ("order",), ("customer",)) <= 1
        assert degree(orders, ("customer",), ("order",)) > 1
        assert degree(Relation("R", ("A", "B"), []), ("A",), ("B",)) <= 1


class TestRelationStatistics:
    def test_summary_contains_cardinality_and_degrees(self, orders):
        stats = DegreeCatalog(orders)
        assert stats.cardinality == 4
        assert stats.distinct(("customer",)) == 2
        assert stats.max_degree((), ("customer", "order", "item")) == 4
        assert stats.max_degree(("customer",), ("order", "item")) == 2

    def test_composite_keys_are_built_on_demand(self, orders):
        stats = DegreeCatalog(orders)
        assert stats.max_degree(("customer", "order"), ("item",)) == 2

    @given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_degree_bounds_cardinality(self, tuples):
        relation = Relation("R", ("A", "B"), tuples)
        # max degree per A times number of distinct A values is >= |R|.
        per_a = degree(relation, ("A",), ("B",))
        assert per_a * len(relation.column("A")) >= len(relation)
        # Degree never exceeds total distinct B values.
        assert per_a <= len(relation.column("B"))


TRIPLES = st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4),
                            st.integers(0, 4)), max_size=40)


class TestDegreeCatalog:
    """The planner's catalog: every read equals the one-shot functions."""

    @given(TRIPLES)
    @settings(max_examples=60, deadline=None)
    def test_reads_equal_degree_and_max_degree(self, tuples):
        relation = Relation("R", ("A", "B", "C"), tuples)
        catalog = DegreeCatalog(relation)
        assert catalog.cardinality == len(relation)
        for x, y in ((("A",), ("B", "C")), (("A",), ("B",)),
                     (("B", "C"), ("A",)), ((), ("A", "C")),
                     (("C",), ("A", "B"))):
            assert catalog.max_degree(x, y) == degree(relation, x, y)
        for attribute in relation.attributes:
            assert catalog.max_degree((attribute,)) \
                == max_degree(relation, attribute)
            assert catalog.distinct((attribute,)) \
                == len(relation.column(attribute))
        assert catalog.distinct(("A", "B")) == len(relation.columns(("A", "B")))

    @given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                   max_size=30),
           st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                   max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_dot_product_is_the_join_size(self, left, right):
        r = Relation("R", ("A", "B"), left)
        s = Relation("S", ("B", "C"), right)
        assert join_size(DegreeCatalog(r).degree_map(("B",)),
                         DegreeCatalog(s).degree_map(("B",))) \
            == len(natural_join(r, s))

    def test_maps_are_built_once(self, orders):
        catalog = DegreeCatalog(orders)
        assert catalog.degree_map(("customer",)) \
            is catalog.degree_map(("customer",), ("order", "item"))
        assert catalog.degree_map(("customer",)) == {1: 2, 2: 2}
        assert catalog.degree_map(("customer",), ("order",)) == {1: 2, 2: 1}
