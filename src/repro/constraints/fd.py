"""Functional dependencies as a special case of degree constraints.

A functional dependency A_X -> A_Y is the degree constraint (X, X u Y, 1):
fixing the X-values leaves at most one Y-binding.  This module provides the
conversion from FDs to degree constraints, and detection of "simple" FDs
(single variable to single variable), the class for which Corollary 5.3
gives an exact acyclification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.constraints.degree import DegreeConstraint, DegreeConstraintSet
from repro.errors import ConstraintError


@dataclass(frozen=True)
class FunctionalDependency:
    """An FD ``determinant -> dependent``.

    Attributes
    ----------
    determinant:
        The left-hand side X.
    dependent:
        The right-hand side Y (need not be disjoint from X; the trivial part
        is ignored by closure computations).
    """

    determinant: frozenset[str]
    dependent: frozenset[str]

    def __init__(self, determinant: Iterable[str], dependent: Iterable[str]):
        object.__setattr__(self, "determinant", frozenset(determinant))
        object.__setattr__(self, "dependent", frozenset(dependent))
        if not self.determinant:
            raise ConstraintError("an FD needs a non-empty determinant")
        if not self.dependent:
            raise ConstraintError("an FD needs a non-empty dependent")

    @property
    def is_trivial(self) -> bool:
        """True when the dependent is contained in the determinant."""
        return self.dependent <= self.determinant

    @property
    def is_simple(self) -> bool:
        """True for single-variable -> single-variable FDs."""
        return len(self.determinant) == 1 and len(self.dependent - self.determinant) == 1

    def to_degree_constraint(self, guard: str | None = None) -> DegreeConstraint:
        """The FD as a degree constraint (X, X u Y, 1)."""
        return DegreeConstraint.functional_dependency(
            self.determinant, self.dependent, guard=guard
        )

    def __str__(self) -> str:
        lhs = ",".join(sorted(self.determinant))
        rhs = ",".join(sorted(self.dependent))
        return f"{lhs} -> {rhs}"


def fds_to_constraints(variables: Sequence[str], fds: Sequence[FunctionalDependency],
                       guards: dict[FunctionalDependency, str] | None = None
                       ) -> DegreeConstraintSet:
    """Convert a list of FDs into a :class:`DegreeConstraintSet` (FD-only)."""
    constraints = []
    for fd in fds:
        if fd.is_trivial:
            continue
        guard = (guards or {}).get(fd)
        constraints.append(fd.to_degree_constraint(guard=guard))
    return DegreeConstraintSet(variables, constraints)
