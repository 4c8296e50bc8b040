"""Tests for entropy functions of distributions and relations."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotEntropicError
from repro.infotheory.entropy import (
    entropy_function_of_distribution,
    entropy_function_of_relation,
    entropy_of_distribution,
    support_size,
    verify_support_bound,
)
from repro.relational.relation import Relation


class TestScalarEntropy:
    def test_uniform_entropy(self):
        assert entropy_of_distribution([0.25] * 4) == pytest.approx(2.0)

    def test_deterministic_entropy_zero(self):
        assert entropy_of_distribution([1.0]) == pytest.approx(0.0)

    def test_zero_probabilities_ignored(self):
        assert entropy_of_distribution([0.5, 0.5, 0.0]) == pytest.approx(1.0)

    def test_rejects_non_normalized(self):
        with pytest.raises(NotEntropicError):
            entropy_of_distribution([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(NotEntropicError):
            entropy_of_distribution([1.2, -0.2])


class TestEntropyFunctionOfDistribution:
    def test_independent_uniform_bits(self):
        distribution = {(a, b): 0.25 for a in (0, 1) for b in (0, 1)}
        h = entropy_function_of_distribution(("A", "B"), distribution)
        assert h(["A"]) == pytest.approx(1.0)
        assert h(["B"]) == pytest.approx(1.0)
        assert h(["A", "B"]) == pytest.approx(2.0)
        assert h([]) == 0.0

    def test_perfectly_correlated_bits(self):
        distribution = {(0, 0): 0.5, (1, 1): 0.5}
        h = entropy_function_of_distribution(("A", "B"), distribution)
        assert h(["A", "B"]) == pytest.approx(1.0)
        assert h(["A"]) == pytest.approx(1.0)
        assert h(["A"]) + h(["B"]) - h(["A", "B"]) == pytest.approx(1.0)

    def test_result_is_polymatroid(self):
        distribution = {(0, 0, 1): 0.2, (1, 0, 1): 0.3, (1, 1, 0): 0.5}
        h = entropy_function_of_distribution(("A", "B", "C"), distribution)
        assert h.is_polymatroid()

    def test_arity_mismatch_rejected(self):
        with pytest.raises(NotEntropicError):
            entropy_function_of_distribution(("A", "B"), {(1,): 1.0})


class TestEntropyFunctionOfRelation:
    def test_full_set_value_is_log_cardinality(self):
        relation = Relation("R", ("A", "B"), [(i, i % 2) for i in range(8)])
        h = entropy_function_of_relation(relation)
        assert h(["A", "B"]) == pytest.approx(math.log2(8))

    def test_empty_relation_rejected(self):
        with pytest.raises(NotEntropicError):
            entropy_function_of_relation(Relation("R", ("A",), []))

    def test_custom_variable_names(self):
        relation = Relation("R", ("X", "Y"), [(1, 2), (3, 4)])
        h = entropy_function_of_relation(relation, variables=("A", "B"))
        assert h(["A", "B"]) == pytest.approx(1.0)

    def test_variable_count_mismatch(self):
        relation = Relation("R", ("X", "Y"), [(1, 2)])
        with pytest.raises(NotEntropicError):
            entropy_function_of_relation(relation, variables=("A",))

    def test_support_bound_inequality_31(self):
        relation = Relation("R", ("A", "B"), [(1, 1), (1, 2), (2, 2), (3, 1)])
        assert verify_support_bound(relation)

    def test_support_size(self):
        relation = Relation("R", ("A", "B"), [(1, 1), (1, 2), (2, 2)])
        assert support_size(relation, ("A",)) == 2
        assert support_size(relation, ("A", "B")) == 3

    @given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
                   min_size=1, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_relation_entropy_is_polymatroid(self, tuples):
        relation = Relation("R", ("A", "B", "C"), tuples)
        h = entropy_function_of_relation(relation)
        assert h.is_polymatroid(tolerance=1e-7)

    @given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                   min_size=1, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_marginal_entropy_bounded_by_support(self, tuples):
        relation = Relation("R", ("A", "B"), tuples)
        h = entropy_function_of_relation(relation)
        assert h(["A"]) <= math.log2(len(relation.column("A"))) + 1e-9
        assert h(["A", "B"]) == pytest.approx(math.log2(len(relation)))
