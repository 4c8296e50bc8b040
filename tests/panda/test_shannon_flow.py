"""Tests for Shannon-flow inequalities and their extraction from LPs."""

from fractions import Fraction

import pytest

from repro.constraints.degree import (
    DegreeConstraint,
    DegreeConstraintSet,
    cardinality_constraints,
)
from repro.datagen.worstcase import triangle_agm_tight_instance
from repro.errors import ProofError
from repro.infotheory.set_functions import uniform_step_function
from repro.panda.example1 import example1_constraints, example1_inequality
from repro.panda.shannon_flow import (
    ShannonFlowInequality,
    constraint_log_bounds,
    extract_flow_from_polymatroid_dual,
    shannon_flow_from_constraints,
)
from repro.panda.terms import ConditionalTerm


def triangle_flow(weight=Fraction(1, 2)):
    return ShannonFlowInequality.from_terms(("A", "B", "C"), {
        ConditionalTerm.unconditional(["A", "B"]): weight,
        ConditionalTerm.unconditional(["B", "C"]): weight,
        ConditionalTerm.unconditional(["A", "C"]): weight,
    })


class TestShannonFlowInequality:
    def test_triangle_flow_is_valid(self):
        assert triangle_flow().is_valid()

    def test_underweighted_flow_is_invalid(self):
        assert not triangle_flow(Fraction(2, 5)).is_valid()

    def test_example1_inequality_valid(self):
        assert example1_inequality().is_valid()

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ProofError):
            ShannonFlowInequality.from_terms(("A",), {
                ConditionalTerm.unconditional(["A"]): -1,
            })

    def test_foreign_variable_rejected(self):
        with pytest.raises(ProofError):
            ShannonFlowInequality.from_terms(("A",), {
                ConditionalTerm.unconditional(["Z"]): 1,
            })

    def test_zero_coefficients_dropped(self):
        flow = ShannonFlowInequality.from_terms(("A", "B"), {
            ConditionalTerm.unconditional(["A"]): 0,
            ConditionalTerm.unconditional(["A", "B"]): 1,
        })
        assert len(flow.coefficients) == 1

    def test_holds_for_concrete_polymatroid(self):
        h = uniform_step_function(["A", "B", "C"], threshold=2)
        assert triangle_flow().holds_for(h)

    def test_term_bag_round_trip(self):
        flow = triangle_flow()
        bag = flow.term_bag()
        assert bag.total_weight() == Fraction(3, 2)

    def test_weighted_log_bound(self):
        flow = triangle_flow()
        bounds = {term: 10.0 for term, _ in flow.coefficients}
        assert flow.weighted_log_bound(bounds) == pytest.approx(15.0)

    def test_weighted_log_bound_missing_statistic(self):
        flow = triangle_flow()
        with pytest.raises(ProofError):
            flow.weighted_log_bound({})

    def test_str(self):
        assert "h(ABC) <=" in str(triangle_flow())


class TestFromConstraints:
    def test_build_from_constraint_indices(self):
        dc = example1_constraints(64, 64, 64, 4, 4)
        flow = shannon_flow_from_constraints(
            dc, {i: Fraction(1, 2) for i in range(len(dc))})
        assert flow.is_valid()
        assert len(flow.coefficients) == 5

    def test_out_of_range_index_rejected(self):
        dc = example1_constraints(64, 64, 64, 4, 4)
        with pytest.raises(ProofError):
            shannon_flow_from_constraints(dc, {99: 1})

    def test_constraint_log_bounds_picks_tightest(self):
        dc = DegreeConstraintSet(("A", "B"), [
            DegreeConstraint.cardinality(("A", "B"), 16, guard="R"),
            DegreeConstraint.cardinality(("A", "B"), 4, guard="S"),
        ])
        bounds = constraint_log_bounds(dc)
        term = ConditionalTerm.unconditional(["A", "B"])
        assert bounds[term] == pytest.approx(2.0)


class TestExtraction:
    def test_extracted_flow_is_valid_and_matches_bound(self):
        query, database = triangle_agm_tight_instance(100)
        dc = cardinality_constraints(query, database)
        flow = extract_flow_from_polymatroid_dual(dc)
        assert flow.is_valid()
        # <delta, n> equals the polymatroid (= AGM) bound, eq. (73).
        from repro.bounds.polymatroid import polymatroid_bound
        bounds = constraint_log_bounds(dc)
        assert flow.weighted_log_bound(bounds) == pytest.approx(
            polymatroid_bound(dc).log2_bound, abs=1e-4)

    def test_extraction_solves_lp68_once_and_reads_a_supplied_result(
            self, monkeypatch):
        from repro.bounds.polymatroid import polymatroid_bound
        from repro.covers.lp import LinearProgram
        dc = example1_constraints(128, 128, 128, 4, 4)
        result = polymatroid_bound(dc)
        solved = []
        solve = LinearProgram.solve
        monkeypatch.setattr(LinearProgram, "solve",
                            lambda lp: solved.append(lp.name) or solve(lp))
        flow = extract_flow_from_polymatroid_dual(dc)
        assert solved == ["polymatroid-bound"]
        solved.clear()
        assert extract_flow_from_polymatroid_dual(dc, result) == flow
        assert solved == []

    def test_extraction_rejects_a_zhang_yeung_result(self):
        from repro.bounds.polymatroid import polymatroid_bound
        dc = example1_constraints(64, 64, 64, 4, 4)
        result = polymatroid_bound(dc, use_zhang_yeung=True)
        assert result.zhang_yeung
        with pytest.raises(ProofError, match="Zhang–Yeung"):
            extract_flow_from_polymatroid_dual(dc, result)

    def test_extracted_flow_for_example1(self):
        dc = example1_constraints(128, 128, 128, 4, 4)
        flow = extract_flow_from_polymatroid_dual(dc)
        assert flow.is_valid()
        bounds = constraint_log_bounds(dc)
        from repro.bounds.polymatroid import polymatroid_bound
        assert flow.weighted_log_bound(bounds) == pytest.approx(
            polymatroid_bound(dc).log2_bound, abs=1e-4)
