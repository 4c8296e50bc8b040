"""Tests for the automatic proof-sequence search."""

from fractions import Fraction

import pytest

from repro.constraints.degree import cardinality_constraints
from repro.datagen.worstcase import triangle_agm_tight_instance
from repro.panda.example1 import example1_constraints, example1_inequality
from repro.panda.proof_search import derive_proof_sequence
from repro.panda.shannon_flow import ShannonFlowInequality, extract_flow_from_polymatroid_dual
from repro.panda.terms import ConditionalTerm

HALF = Fraction(1, 2)


def flow(variables, coefficients):
    return ShannonFlowInequality.from_terms(variables, coefficients)


class TestDeriveProofSequence:
    def test_trivial_inequality_needs_no_steps(self):
        inequality = flow(("A", "B"), {
            ConditionalTerm.unconditional(["A", "B"]): 1,
        })
        sequence = derive_proof_sequence(inequality)
        assert sequence is not None
        assert len(sequence) == 0
        assert sequence.verify()

    def test_cartesian_product_inequality(self):
        # h(AB) <= h(A) + h(B): one lift plus one composition.
        inequality = flow(("A", "B"), {
            ConditionalTerm.unconditional(["A"]): 1,
            ConditionalTerm.unconditional(["B"]): 1,
        })
        sequence = derive_proof_sequence(inequality)
        assert sequence is not None
        assert sequence.verify()

    def test_chain_with_degree_terms(self):
        # h(ABC) <= h(AB) + h(BC|B): lift then compose.
        inequality = flow(("A", "B", "C"), {
            ConditionalTerm.unconditional(["A", "B"]): 1,
            ConditionalTerm(y=frozenset("BC"), x=frozenset("B")): 1,
        })
        sequence = derive_proof_sequence(inequality)
        assert sequence is not None
        assert sequence.verify()

    def test_triangle_shearer_inequality(self):
        inequality = flow(("A", "B", "C"), {
            ConditionalTerm.unconditional(["A", "B"]): HALF,
            ConditionalTerm.unconditional(["B", "C"]): HALF,
            ConditionalTerm.unconditional(["A", "C"]): HALF,
        })
        sequence = derive_proof_sequence(inequality)
        assert sequence is not None
        assert sequence.verify()

    def test_example1_inequality(self):
        sequence = derive_proof_sequence(example1_inequality())
        assert sequence is not None
        assert sequence.verify()

    def test_extracted_triangle_flow(self):
        query, database = triangle_agm_tight_instance(64)
        dc = cardinality_constraints(query, database)
        inequality = extract_flow_from_polymatroid_dual(dc)
        sequence = derive_proof_sequence(inequality)
        assert sequence is not None
        assert sequence.verify()

    @pytest.mark.parametrize("stats", [
        (16, 32, 16, 2, 4), (16, 16, 16, 4, 4), (64, 128, 64, 4, 8),
        (64, 64, 64, 8, 8),
    ])
    def test_extracted_example1_flows_with_exact_duals(self, stats):
        # Example 1 statistics whose polymatroid LP is degenerate: rounded
        # float duals gave flows the bounded search could not prove.
        inequality = extract_flow_from_polymatroid_dual(example1_constraints(*stats))
        sequence = derive_proof_sequence(inequality)
        assert sequence is not None
        assert sequence.verify()

    def test_invalid_inequality_yields_none(self):
        # Coefficients too small to cover h(ABC): no proof exists.
        inequality = flow(("A", "B", "C"), {
            ConditionalTerm.unconditional(["A", "B"]): Fraction(1, 3),
            ConditionalTerm.unconditional(["B", "C"]): Fraction(1, 3),
            ConditionalTerm.unconditional(["A", "C"]): Fraction(1, 3),
        })
        assert not inequality.is_valid()
        assert derive_proof_sequence(inequality, max_depth=8, max_nodes=2000) is None

    def test_budget_exhaustion_returns_none(self):
        sequence = derive_proof_sequence(example1_inequality(), max_depth=2)
        assert sequence is None
