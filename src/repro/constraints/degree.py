"""Degree constraints (Definition 1 of the paper).

A degree constraint is a triple (X, Y, N_{Y|X}) with X a proper subset of Y,
asserting that in the guarding relation R_F (with Y subseteq F)

    deg_F(A_Y | A_X) = max_t |pi_{A_Y} sigma_{A_X = t}(R_F)| <= N_{Y|X}.

Cardinality constraints are the special case X = emptyset; functional
dependencies are the special case N_{Y|X} = 1.  A
:class:`DegreeConstraintSet` collects constraints together with the query
variables they speak about, can be *validated* against a database, *derived*
from a database, and queried for acyclicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import ConstraintError
from repro.query.atoms import ConjunctiveQuery
from repro.relational.database import Database
from repro.relational.statistics import degree as relation_degree


@dataclass(frozen=True)
class DegreeConstraint:
    """One degree constraint (X, Y, N_{Y|X}) with an optional guard.

    Attributes
    ----------
    x:
        The conditioning variable set X (may be empty).
    y:
        The constrained variable set Y; must strictly contain X.
    bound:
        The numeric bound N_{Y|X} (>= 0; a bound of 0 forces emptiness).
    guard:
        Name of the relation (or query edge key) guarding the constraint,
        i.e. a relation whose variables include Y.  ``None`` means "to be
        resolved against a query" — most operations require a guard.
    """

    x: frozenset[str]
    y: frozenset[str]
    bound: float
    guard: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", frozenset(self.x))
        object.__setattr__(self, "y", frozenset(self.y))
        if not self.x < self.y:
            raise ConstraintError(
                f"degree constraint requires X to be a proper subset of Y, got "
                f"X={sorted(self.x)}, Y={sorted(self.y)}"
            )
        if self.bound < 0:
            raise ConstraintError(f"degree bound must be non-negative, got {self.bound}")

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @property
    def is_cardinality(self) -> bool:
        """True if X is empty (a cardinality constraint |R_F| <= N)."""
        return not self.x

    @property
    def is_fd(self) -> bool:
        """True if the bound is 1 (a functional dependency A_X -> A_Y)."""
        return self.bound <= 1

    @property
    def is_simple_fd(self) -> bool:
        """True if it is an FD from one variable to one other variable."""
        return self.is_fd and len(self.x) == 1 and len(self.y - self.x) == 1

    @property
    def free_variables(self) -> frozenset[str]:
        """Y - X: the variables whose multiplicity the constraint limits."""
        return self.y - self.x

    @property
    def log_bound(self) -> float:
        """log2 N_{Y|X}; -inf when the bound is 0."""
        if self.bound == 0:
            return float("-inf")
        return math.log2(self.bound)

    # ------------------------------------------------------------------
    # Constructors and validation
    # ------------------------------------------------------------------
    @classmethod
    def cardinality(cls, variables: Iterable[str], bound: float,
                    guard: str | None = None) -> "DegreeConstraint":
        """A cardinality constraint |R(variables)| <= bound."""
        return cls(x=frozenset(), y=frozenset(variables), bound=bound, guard=guard)

    @classmethod
    def functional_dependency(cls, x: Iterable[str], y: Iterable[str],
                              guard: str | None = None) -> "DegreeConstraint":
        """The FD A_X -> A_Y as the degree constraint (X, X u Y, 1)."""
        x_set = frozenset(x)
        return cls(x=x_set, y=x_set | frozenset(y), bound=1, guard=guard)

    def weaken_to(self, new_y: Iterable[str]) -> "DegreeConstraint":
        """Replace Y by a smaller set Y' (X < Y' <= Y) keeping the same bound.

        This is the constraint-weakening move used by Proposition 5.2 (any
        relation guarding (X, Y, N) also guards (X, Y', N)).
        """
        new_y_set = frozenset(new_y)
        if not (self.x < new_y_set <= self.y):
            raise ConstraintError(
                f"cannot weaken {self} to Y'={sorted(new_y_set)}"
            )
        return DegreeConstraint(x=self.x, y=new_y_set, bound=self.bound, guard=self.guard)

    def is_satisfied_by(self, database: Database,
                        variable_of_column: Mapping[str, Mapping[str, str]] | None = None
                        ) -> bool:
        """Check the constraint against its guard relation in ``database``.

        ``variable_of_column`` optionally maps guard relation name ->
        (column -> variable) when relation column names differ from query
        variables; by default columns are assumed to be named after the
        variables themselves.
        """
        if self.guard is None:
            raise ConstraintError(f"constraint {self} has no guard to validate against")
        relation = database.get(self.guard)
        if variable_of_column and self.guard in variable_of_column:
            renaming = {col: var for col, var in variable_of_column[self.guard].items()}
            relation = relation.rename(renaming)
        for variable in self.y:
            if variable not in relation.schema:
                raise ConstraintError(
                    f"guard {self.guard!r} does not contain variable {variable!r} "
                    f"required by constraint {self}"
                )
        if len(relation) == 0:
            return True
        actual = relation_degree(relation, tuple(self.x), tuple(self.y - self.x))
        return actual <= self.bound

    def __str__(self) -> str:
        x_text = ",".join(sorted(self.x)) or "()"
        y_text = ",".join(sorted(self.y))
        guard_text = f" guarded by {self.guard}" if self.guard else ""
        return f"deg({y_text} | {x_text}) <= {self.bound:g}{guard_text}"


class DegreeConstraintSet:
    """A set DC of degree constraints over a set of query variables.

    Parameters
    ----------
    variables:
        All query variables (the ground set [n]).
    constraints:
        The degree constraints.  Each constraint's variables must be drawn
        from ``variables``.
    """

    def __init__(self, variables: Sequence[str],
                 constraints: Iterable[DegreeConstraint] = ()):
        self._variables = tuple(variables)
        variable_set = set(self._variables)
        self._constraints: list[DegreeConstraint] = []
        for constraint in constraints:
            if not constraint.y <= variable_set:
                raise ConstraintError(
                    f"constraint {constraint} mentions variables outside "
                    f"{sorted(variable_set)}"
                )
            self._constraints.append(constraint)

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    @property
    def variables(self) -> tuple[str, ...]:
        """The ground set of variables."""
        return self._variables

    @property
    def constraints(self) -> tuple[DegreeConstraint, ...]:
        """The constraints, in insertion order."""
        return tuple(self._constraints)

    def __iter__(self) -> Iterator[DegreeConstraint]:
        return iter(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def add(self, constraint: DegreeConstraint) -> None:
        """Add one more constraint (mutating)."""
        if not constraint.y <= set(self._variables):
            raise ConstraintError(
                f"constraint {constraint} mentions variables outside "
                f"{self._variables}"
            )
        self._constraints.append(constraint)

    def replace(self, old: DegreeConstraint, new: DegreeConstraint
                ) -> "DegreeConstraintSet":
        """A new set with ``old`` replaced by ``new``."""
        constraints = [new if c == old else c for c in self._constraints]
        return DegreeConstraintSet(self._variables, constraints)

    def without(self, constraint: DegreeConstraint) -> "DegreeConstraintSet":
        """A new set with ``constraint`` removed."""
        constraints = [c for c in self._constraints if c != constraint]
        return DegreeConstraintSet(self._variables, constraints)

    # ------------------------------------------------------------------
    # Classification helpers
    # ------------------------------------------------------------------
    def cardinality_constraints(self) -> tuple[DegreeConstraint, ...]:
        """The cardinality constraints in the set."""
        return tuple(c for c in self._constraints if c.is_cardinality)

    def proper_degree_constraints(self) -> tuple[DegreeConstraint, ...]:
        """The constraints with non-empty X."""
        return tuple(c for c in self._constraints if not c.is_cardinality)

    def only_cardinalities(self) -> bool:
        """True if every constraint is a cardinality constraint."""
        return all(c.is_cardinality for c in self._constraints)

    def only_cardinalities_and_simple_fds(self) -> bool:
        """True if every constraint is a cardinality constraint or a simple FD
        (the setting of Corollary 5.3 / Gottlob et al.)."""
        return all(c.is_cardinality or c.is_simple_fd for c in self._constraints)

    # ------------------------------------------------------------------
    # Structure / validation
    # ------------------------------------------------------------------
    def is_acyclic(self) -> bool:
        """True if the constraint dependency graph G_DC is acyclic (Def. 3)."""
        from repro.constraints.dependency_graph import is_acyclic
        return is_acyclic(self)

    def validate(self, database: Database,
                 variable_of_column: Mapping[str, Mapping[str, str]] | None = None
                 ) -> bool:
        """True if the database satisfies every constraint (D |= DC)."""
        return all(
            c.is_satisfied_by(database, variable_of_column) for c in self._constraints
        )

    def violated_constraints(self, database: Database,
                             variable_of_column: Mapping[str, Mapping[str, str]] | None = None
                             ) -> list[DegreeConstraint]:
        """The constraints the database does *not* satisfy."""
        return [
            c for c in self._constraints
            if not c.is_satisfied_by(database, variable_of_column)
        ]

    def guards(self) -> dict[str, list[DegreeConstraint]]:
        """Group constraints by guard relation name."""
        grouped: dict[str, list[DegreeConstraint]] = {}
        for constraint in self._constraints:
            if constraint.guard is not None:
                grouped.setdefault(constraint.guard, []).append(constraint)
        return grouped

    def constraints_bounding(self, variable: str) -> tuple[DegreeConstraint, ...]:
        """Constraints whose free set Y - X contains ``variable``."""
        return tuple(c for c in self._constraints if variable in c.free_variables)

    def __str__(self) -> str:
        lines = [str(c) for c in self._constraints]
        return "DC{" + "; ".join(lines) + "}"

    def __repr__(self) -> str:
        return f"DegreeConstraintSet({len(self._constraints)} constraints over {self._variables})"


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def cardinality_constraints(query: ConjunctiveQuery, database: Database
                            ) -> DegreeConstraintSet:
    """Build the cardinality-only constraint set |R_F| <= current size, one
    per query atom, guarded by the atom's edge key."""
    query.validate_against(database)
    constraints = []
    for i, atom in enumerate(query.atoms):
        relation = database.get(atom.relation)
        constraints.append(
            DegreeConstraint.cardinality(atom.variables, len(relation),
                                         guard=query.edge_key(i))
        )
    return DegreeConstraintSet(query.variables, constraints)


def constraints_from_database(query: ConjunctiveQuery, database: Database,
                              max_key_size: int = 1,
                              include_cardinalities: bool = True
                              ) -> DegreeConstraintSet:
    """Derive degree constraints from the data itself.

    For every atom and every conditioning set X of at most ``max_key_size``
    atom variables, add the constraint (X, F, observed degree) guarded by the
    atom.  This mirrors what an engine with degree statistics in its catalog
    would know about the instance.
    """
    from itertools import combinations

    query.validate_against(database)
    constraints: list[DegreeConstraint] = []
    for i, atom in enumerate(query.atoms):
        relation = database.get(atom.relation)
        renamed = relation.rename(dict(zip(relation.attributes, atom.variables)))
        edge_key = query.edge_key(i)
        if include_cardinalities:
            constraints.append(
                DegreeConstraint.cardinality(atom.variables, len(renamed), guard=edge_key)
            )
        attrs = atom.variables
        for size in range(1, min(max_key_size, len(attrs) - 1) + 1):
            for x in combinations(attrs, size):
                rest = tuple(a for a in attrs if a not in x)
                observed = relation_degree(renamed, x, rest) if len(renamed) else 0
                constraints.append(
                    DegreeConstraint(x=frozenset(x), y=frozenset(attrs),
                                     bound=max(observed, 1 if len(renamed) else 0),
                                     guard=edge_key)
                )
    return DegreeConstraintSet(query.variables, constraints)
