"""Tests for the bound dispatcher (output_size_bound)."""

import pytest

from repro.bounds.degree_aware import output_size_bound
from repro.constraints.degree import DegreeConstraint, DegreeConstraintSet
from repro.datagen.worstcase import triangle_agm_tight_instance
from repro.joins.generic_join import generic_join
from repro.panda.example1 import example1_constraints, example1_query


class TestDispatch:
    def test_cardinalities_use_agm(self):
        query, database = triangle_agm_tight_instance(100)
        result = output_size_bound(query, database)
        assert result.method == "agm"
        assert result.bound >= len(generic_join(query, database)) - 1e-9

    def test_acyclic_degree_constraints_use_modular(self):
        query, database = triangle_agm_tight_instance(100)
        dc = DegreeConstraintSet(("A", "B", "C"), [
            DegreeConstraint.cardinality(("A", "B"), 100, guard="R"),
            DegreeConstraint(x=frozenset("B"), y=frozenset("BC"), bound=3, guard="S"),
            DegreeConstraint(x=frozenset("A"), y=frozenset({"A", "C"}), bound=3, guard="T"),
        ])
        result = output_size_bound(query, database=database, dc=dc)
        assert result.method == "modular"
        assert result.bound == pytest.approx(100 * 3, rel=1e-6)

    def test_cyclic_degree_constraints_use_polymatroid(self):
        query = example1_query()
        dc = example1_constraints(64, 64, 64, 4, 4)
        # Make it cyclic by adding a reverse-direction constraint.
        dc.add(DegreeConstraint(x=frozenset("D"), y=frozenset("AD"), bound=4, guard="W"))
        result = output_size_bound(query, dc=dc)
        assert result.method == "polymatroid"

    def test_requires_database_or_constraints(self):
        with pytest.raises(ValueError):
            output_size_bound(triangle_agm_tight_instance(10)[0])

    def test_worst_case_output_size_helper(self):
        # The triangle's AGM bound over three relations of size N is N^1.5.
        query, database = triangle_agm_tight_instance(100)
        assert output_size_bound(query, database).bound == pytest.approx(1000.0, rel=1e-6)
