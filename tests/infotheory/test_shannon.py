"""Tests for the Shannon-type inequality prover."""

import pytest

from repro.infotheory.set_functions import uniform_step_function
from repro.infotheory.shannon import (
    LinearEntropyExpression,
    elemental_inequalities,
    find_polymatroid_counterexample,
    is_shannon_valid,
)


def expr(ground, coefficients):
    return LinearEntropyExpression.from_dict(ground, coefficients)


class TestExpression:
    def test_from_dict_merges_duplicates(self):
        e = expr(["A", "B"], {frozenset(["A"]): 1.0, ("A",): 2.0})
        assert e.as_dict()[frozenset(["A"])] == pytest.approx(3.0)

    def test_rejects_foreign_subsets(self):
        with pytest.raises(Exception):
            expr(["A"], {frozenset(["Z"]): 1.0})

    def test_evaluate(self):
        h = uniform_step_function(["A", "B"], threshold=1)
        e = expr(["A", "B"], {("A",): 1.0, ("A", "B"): -1.0})
        assert e.evaluate(h) == pytest.approx(0.0)

    def test_plus_and_scaled(self):
        a = expr(["A", "B"], {("A",): 1.0})
        b = expr(["A", "B"], {("B",): 2.0})
        combined = a.plus(b).scaled(2.0)
        assert combined.as_dict()[frozenset(["A"])] == pytest.approx(2.0)
        assert combined.as_dict()[frozenset(["B"])] == pytest.approx(4.0)

    def test_str_representation(self):
        assert "h(A)" in str(expr(["A"], {("A",): 1.0}))


class TestElementalInequalities:
    def test_count_for_three_variables(self):
        # n monotonicity + C(n,2) * 2^(n-2) submodularity = 3 + 3*2 = 9.
        assert len(list(elemental_inequalities(["A", "B", "C"]))) == 9

    def test_count_for_four_variables(self):
        # 4 + 6 * 4 = 28.
        assert len(list(elemental_inequalities(["A", "B", "C", "D"]))) == 28

    def test_all_hold_on_entropic_like_functions(self):
        h = uniform_step_function(["A", "B", "C"], threshold=2)
        for ineq in elemental_inequalities(["A", "B", "C"]):
            assert ineq.evaluate(h) >= -1e-9


class TestValidityDecisions:
    def test_monotonicity_is_valid(self):
        assert is_shannon_valid(expr(["A", "B"], {("A", "B"): 1.0, ("A",): -1.0}))

    def test_reverse_monotonicity_is_invalid(self):
        assert not is_shannon_valid(expr(["A", "B"], {("A",): 1.0, ("A", "B"): -1.0}))

    def test_submodularity_is_valid(self):
        e = expr(["A", "B"], {("A",): 1.0, ("B",): 1.0, ("A", "B"): -1.0})
        assert is_shannon_valid(e)

    def test_supermodularity_is_invalid(self):
        e = expr(["A", "B"], {("A", "B"): 1.0, ("A",): -1.0, ("B",): -1.0})
        assert not is_shannon_valid(e)

    def test_subadditivity_three_variables(self):
        e = expr(["A", "B", "C"],
                 {("A",): 1.0, ("B",): 1.0, ("C",): 1.0, ("A", "B", "C"): -1.0})
        assert is_shannon_valid(e)

    def test_triangle_shearer_inequality_20(self):
        # h(AB) + h(BC) + h(AC) - 2 h(ABC) >= 0 (eq. 20 of the paper).
        e = expr(["A", "B", "C"],
                 {("A", "B"): 1.0, ("B", "C"): 1.0, ("A", "C"): 1.0,
                  ("A", "B", "C"): -2.0})
        assert is_shannon_valid(e)

    def test_triangle_with_insufficient_weights_invalid(self):
        e = expr(["A", "B", "C"],
                 {("A", "B"): 0.4, ("B", "C"): 0.4, ("A", "C"): 0.4,
                  ("A", "B", "C"): -1.0})
        assert not is_shannon_valid(e)

    def test_counterexample_is_polymatroid_and_violates(self):
        e = expr(["A", "B"], {("A",): 1.0, ("A", "B"): -1.0})
        witness = find_polymatroid_counterexample(e)
        assert witness is not None
        assert witness.is_polymatroid(tolerance=1e-7)
        assert e.evaluate(witness) < -1e-8

    def test_no_counterexample_for_valid_inequality(self):
        e = expr(["A", "B"], {("A", "B"): 1.0, ("A",): -1.0})
        assert find_polymatroid_counterexample(e) is None

    def test_zero_expression_is_valid(self):
        assert is_shannon_valid(expr(["A", "B"], {}))
