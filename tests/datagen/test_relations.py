"""Tests for degree-constrained relation generators."""

from repro.datagen.relations import random_relation, relation_with_degree_bound
from repro.relational.statistics import degree


class TestRandomRelation:
    def test_size_and_schema(self):
        r = random_relation("R", ("A", "B", "C"), 40, domain_size=10, seed=1)
        assert len(r) == 40
        assert r.attributes == ("A", "B", "C")

    def test_caps_at_domain_size(self):
        r = random_relation("R", ("A",), 100, domain_size=5, seed=1)
        assert len(r) == 5

    def test_deterministic(self):
        assert random_relation("R", ("A", "B"), 30, 8, seed=3) == \
            random_relation("R", ("A", "B"), 30, 8, seed=3)

    def test_values_in_domain(self):
        r = random_relation("R", ("A", "B"), 30, 6, seed=4)
        assert all(0 <= v < 6 for t in r for v in t)


class TestDegreeBoundedRelation:
    def test_degree_bound_respected(self):
        r = relation_with_degree_bound("W", ("A", "C", "D"), key=("A", "C"),
                                       max_degree=3, num_keys=20, domain_size=10, seed=2)
        assert degree(r, ("A", "C"), ("D",)) <= 3

    def test_number_of_keys(self):
        r = relation_with_degree_bound("W", ("A", "B"), key=("A",), max_degree=2,
                                       num_keys=15, domain_size=50, seed=3)
        assert len(r.column("A")) == 15

    def test_single_column_key_order_preserved(self):
        r = relation_with_degree_bound("W", ("X", "Y", "Z"), key=("Y",), max_degree=2,
                                       num_keys=5, domain_size=10, seed=4)
        assert r.attributes == ("X", "Y", "Z")
        assert degree(r, ("Y",), ("X", "Z")) <= 2
