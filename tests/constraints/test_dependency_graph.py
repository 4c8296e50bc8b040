"""Tests for the constraint dependency graph G_DC."""

import pytest

from repro.constraints.degree import DegreeConstraint, DegreeConstraintSet
from repro.constraints.dependency_graph import (
    compatible_variable_order,
    constraint_dependency_graph,
    find_cycle,
    is_acyclic,
    order_is_compatible,
)
from repro.errors import ConstraintError


def make_dc(variables, constraints):
    return DegreeConstraintSet(variables, constraints)


class TestGraphConstruction:
    def test_cardinality_constraints_add_no_edges(self):
        dc = make_dc(("A", "B"), [DegreeConstraint.cardinality(("A", "B"), 4)])
        graph = constraint_dependency_graph(dc)
        assert graph == {"A": [], "B": []}

    def test_degree_constraint_edges(self):
        dc = make_dc(("A", "B", "C"), [
            DegreeConstraint(x=frozenset("A"), y=frozenset("ABC"), bound=4),
        ])
        graph = constraint_dependency_graph(dc)
        assert {(x, y) for x, succ in graph.items() for y in succ} == {
            ("A", "B"), ("A", "C")}


class TestAcyclicity:
    def test_cardinalities_only_acyclic(self):
        dc = make_dc(("A", "B"), [DegreeConstraint.cardinality(("A", "B"), 4)])
        assert is_acyclic(dc)
        assert find_cycle(dc) is None

    def test_chain_is_acyclic(self):
        dc = make_dc(("A", "B", "C"), [
            DegreeConstraint.cardinality(("A",), 4),
            DegreeConstraint(x=frozenset("A"), y=frozenset("AB"), bound=2),
            DegreeConstraint(x=frozenset("B"), y=frozenset("BC"), bound=2),
        ])
        assert is_acyclic(dc)

    def test_two_cycle_detected(self):
        dc = make_dc(("A", "B"), [
            DegreeConstraint(x=frozenset("A"), y=frozenset("AB"), bound=2),
            DegreeConstraint(x=frozenset("B"), y=frozenset("AB"), bound=2),
        ])
        assert not is_acyclic(dc)
        assert find_cycle(dc) is not None

    def test_query63_cycle_detected(self):
        dc = make_dc(("A", "B", "C", "D"), [
            DegreeConstraint.cardinality(("A",), 10),
            DegreeConstraint(x=frozenset("A"), y=frozenset("AB"), bound=2),
            DegreeConstraint(x=frozenset("B"), y=frozenset("BC"), bound=2),
            DegreeConstraint(x=frozenset("C"), y=frozenset({"A", "C", "D"}), bound=2),
        ])
        assert not is_acyclic(dc)


class TestCompatibleOrder:
    def test_order_respects_constraints(self):
        dc = make_dc(("A", "B", "C"), [
            DegreeConstraint.cardinality(("A",), 4),
            DegreeConstraint(x=frozenset("A"), y=frozenset("AB"), bound=2),
            DegreeConstraint(x=frozenset("B"), y=frozenset("BC"), bound=2),
        ])
        order = compatible_variable_order(dc)
        assert order.index("A") < order.index("B") < order.index("C")
        assert order_is_compatible(dc, order)

    def test_cyclic_dc_has_no_order(self):
        dc = make_dc(("A", "B"), [
            DegreeConstraint(x=frozenset("A"), y=frozenset("AB"), bound=2),
            DegreeConstraint(x=frozenset("B"), y=frozenset("AB"), bound=2),
        ])
        with pytest.raises(ConstraintError):
            compatible_variable_order(dc)

    def test_preference_breaks_ties(self):
        dc = make_dc(("A", "B", "C"), [DegreeConstraint.cardinality(("A", "B", "C"), 4)])
        assert compatible_variable_order(dc, prefer=("C", "B", "A")) == ("C", "B", "A")

    def test_order_is_compatible_rejects_violations(self):
        dc = make_dc(("A", "B"), [
            DegreeConstraint(x=frozenset("A"), y=frozenset("AB"), bound=2),
        ])
        assert order_is_compatible(dc, ("A", "B"))
        assert not order_is_compatible(dc, ("B", "A"))

    def test_order_is_compatible_requires_all_variables(self):
        dc = make_dc(("A", "B"), [DegreeConstraint.cardinality(("A", "B"), 4)])
        assert not order_is_compatible(dc, ("A",))
