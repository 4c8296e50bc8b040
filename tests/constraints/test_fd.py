"""Tests for functional dependencies."""

import pytest

from repro.constraints.fd import FunctionalDependency, fds_to_constraints
from repro.errors import ConstraintError


class TestFunctionalDependency:
    def test_construction(self):
        fd = FunctionalDependency(("A",), ("B", "C"))
        assert fd.determinant == frozenset({"A"})
        assert fd.dependent == frozenset({"B", "C"})
        assert "A -> B,C" == str(fd) or "A ->" in str(fd)

    def test_empty_sides_rejected(self):
        with pytest.raises(ConstraintError):
            FunctionalDependency((), ("B",))
        with pytest.raises(ConstraintError):
            FunctionalDependency(("A",), ())

    def test_trivial_and_simple(self):
        assert FunctionalDependency(("A", "B"), ("A",)).is_trivial
        assert FunctionalDependency(("A",), ("B",)).is_simple
        assert not FunctionalDependency(("A", "B"), ("C",)).is_simple

    def test_to_degree_constraint(self):
        c = FunctionalDependency(("A",), ("B",)).to_degree_constraint(guard="R")
        assert c.bound == 1
        assert c.x == frozenset({"A"})
        assert c.y == frozenset({"A", "B"})
        assert c.guard == "R"


class TestConversionAndCycles:
    def test_fds_to_constraints_drops_trivial(self):
        dc = fds_to_constraints(("A", "B"), [
            FunctionalDependency(("A",), ("B",)),
            FunctionalDependency(("A", "B"), ("A",)),
        ])
        assert len(dc) == 1
