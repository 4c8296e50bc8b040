"""A named-variable linear-programming layer over one exact simplex.

All the bounds in the paper are optimal values of linear programs (the
fractional edge cover LP, the polymatroid LP (68), the modular LP (54) and
its dual (57), the Shannon-flow dual (72)).  Building those LPs directly as
coefficient matrices is error prone, so this module provides a small model
class with named variables and named constraints, and one solver for all
of them: :func:`simplex`, an exact sparse tableau under Bland's rule.
Every LP in the package is a packing LP or the dual of one, so a single
phase from the slack basis solves it exactly.  scipy's ``linprog``
is the test suite's oracle for this solver, not a dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from repro.errors import LPError

#: Anything ``Fraction()`` converts exactly: ints, floats and Fractions.
Number = int | float | Fraction


def _integers(values: Iterable[Number]) -> tuple[list[int], int]:
    """Integers proportional to ``values``, and the common denominator
    they are over (``values[k] == integers[k] / denominator``)."""
    exact = [Fraction(x) for x in values]
    scale = lcm(*(x.denominator for x in exact))
    return [x.numerator * (scale // x.denominator) for x in exact], scale


def simplex(matrix: Sequence[Mapping[int, Number]], rhs: Sequence[Number],
            costs: Sequence[Number]
            ) -> tuple[list[Fraction], list[Fraction], Fraction]:
    """Maximise ``costs . x`` subject to ``matrix x <= rhs`` and x >= 0,
    for ``rhs >= 0``; return the optimal x, the duals y and the optimum.

    Each row of ``matrix`` maps a column j to the non-zero coefficient of
    x_j.  x = 0 is feasible, so the slack basis starts the single phase.
    Bland's rule (the lowest-labelled improving variable enters, x_j before
    the slacks; a ratio tie goes to the lowest-labelled basic variable)
    cannot cycle, and makes the optimum a function of the arguments alone.
    The duals are the slacks' reduced costs at the optimum.  The compact
    tableau is exact and sparse: integers over a positive denominator per
    row, with the right-hand sides and the costs each scaled to integers
    by one common factor, which moves no pivot.

    Raises
    ------
    LPError
        If an improving column has no positive entry: the LP is unbounded.
    """
    n, m = len(costs), len(rhs)
    b, rhs_scale = _integers(rhs)
    c, cost_scale = _integers(costs)
    # tableau[i][j] / denominator[i] is the entry of row i (the objective
    # row is i = m) in column j: non-basic variable nonbasic[j] for j < n,
    # the right-hand side for j = n.  Absent entries are zero.
    tableau: list[dict[int, int]] = []
    denominator: list[int] = []
    for row, value in zip(matrix, b):
        integers, scale = _integers(row.values())
        entries = {j: x for j, x in zip(row, integers) if x}
        if value:
            entries[n] = value * scale
        tableau.append(entries)
        denominator.append(scale)
    objective = {j: -x for j, x in enumerate(c) if x}
    tableau.append(objective)
    denominator.append(1)
    nonbasic = list(range(n))
    basis = list(range(n, n + m))
    while True:
        improving = [(nonbasic[j], j) for j, d in objective.items()
                     if d < 0 and j < n]
        if not improving:
            break
        label, s = min(improving)
        touched = [i for i, row in enumerate(tableau) if s in row]
        r, best_value, best_a = -1, 0, 1
        for i in touched[:-1]:  # the objective row is last, and never leaves
            a = tableau[i][s]
            if a > 0:
                value = tableau[i].get(n, 0)
                # Compare value / a with the best ratio so far, exactly.
                if r < 0 or value * best_a < best_value * a or (
                        value * best_a == best_value * a and basis[i] < basis[r]):
                    r, best_value, best_a = i, value, a
        if r < 0:
            raise LPError(f"tableau column {label} has no positive entry")
        # Exchange nonbasic[s] and basis[r]: with the pivot p = a_rs,
        # a_ij -= a_is a_rj / p, a_is = -a_is / p, a_rj /= p, a_rs = 1 / p.
        pivot = tableau[r]
        p, d_r = pivot.pop(s), denominator[r]
        pivot_entries = list(pivot.items())
        for i in touched:
            if i == r:
                continue
            row = tableau[i]
            f = row.pop(s)
            if p != 1:
                for j in row:
                    row[j] *= p
            for j, y in pivot_entries:
                x = row.get(j, 0) - f * y
                if x:
                    row[j] = x
                else:
                    del row[j]
            row[s] = -f * d_r
            denominator[i] *= p
            if p != 1:
                _reduce(row, denominator, i)
        pivot[s] = d_r
        denominator[r] = p
        _reduce(pivot, denominator, r)
        basis[r], nonbasic[s] = nonbasic[s], basis[r]
    values = [Fraction(0)] * n
    for i, label in enumerate(basis):
        if label < n:
            values[label] = Fraction(tableau[i].get(n, 0), denominator[i] * rhs_scale)
    duals = [Fraction(0)] * m
    scale = denominator[m] * cost_scale
    for j, label in enumerate(nonbasic):
        if label >= n:
            duals[label - n] = Fraction(objective.get(j, 0), scale)
    return values, duals, Fraction(objective.get(n, 0), scale * rhs_scale)


def _reduce(row: dict[int, int], denominator: list[int], i: int) -> None:
    """Divide row ``i`` and its denominator by their greatest common divisor."""
    g = gcd(denominator[i], *row.values())
    if g > 1:
        for j in row:
            row[j] //= g
        denominator[i] //= g


@dataclass
class LPSolution:
    """Exact solution of a linear program.

    Attributes
    ----------
    objective:
        Optimal objective value (in the *original* sense: max problems report
        the max).
    values:
        Variable name -> optimal value.
    dual_values:
        Constraint name -> optimal dual value, the non-negative multiplier
        of the constraint (a ``>=`` row counts as its negation); by strong
        duality ``sum dual * rhs`` is the objective of a maximisation.
    """

    objective: Fraction
    values: dict[str, Fraction]
    dual_values: dict[str, Fraction]

    def __getitem__(self, variable: str) -> Fraction:
        return self.values[variable]


class LinearProgram:
    """A linear program with named variables and constraints.

    Call :meth:`maximize` / :meth:`minimize` to set the objective (the
    default is minimising 0).  Variables are non-negative, with an optional
    upper bound.  :meth:`solve` handles the two forms every LP of the paper
    takes, once normalised to max c.x subject to Ax <= b and x >= 0 (a
    ``>=`` row negated, an upper bound as a row):

    * **packing form**, every b >= 0: solved directly from the slack basis;
    * **cover form**, every c <= 0 (a minimisation with non-negative
      costs): its dual is a packing LP, and the primal is read off that
      dual's duals.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self._variables: list[str] = []
        self._upper: dict[str, float | None] = {}
        self._objective: dict[str, float] = {}
        self._sense: str = "min"
        # Each constraint: (name, {var: coeff}, op, rhs) with op in {<=, >=}.
        self._constraints: list[tuple[str, dict[str, float], str, float]] = []

    # ------------------------------------------------------------------
    # Model building
    # ------------------------------------------------------------------
    def add_variable(self, name: str, upper: float | None = None) -> str:
        """Declare a variable x >= 0 (x <= upper when given); returns its
        name for convenience."""
        if name in self._upper:
            raise LPError(f"variable {name!r} declared twice")
        self._variables.append(name)
        self._upper[name] = upper
        return name

    def minimize(self, coefficients: Mapping[str, float]) -> None:
        """Set a minimization objective (variable -> coefficient)."""
        self._check_known(coefficients)
        self._objective = dict(coefficients)
        self._sense = "min"

    def maximize(self, coefficients: Mapping[str, float]) -> None:
        """Set a maximization objective (variable -> coefficient)."""
        self._check_known(coefficients)
        self._objective = dict(coefficients)
        self._sense = "max"

    def add_constraint(self, name: str, coefficients: Mapping[str, float],
                       op: str, rhs: float) -> None:
        """Add a constraint ``sum coeff*var  op  rhs`` with op in <=, >=."""
        if op not in ("<=", ">="):
            raise LPError(f"unsupported constraint operator {op!r}")
        self._check_known(coefficients)
        self._constraints.append((name, dict(coefficients), op, rhs))

    def _check_known(self, coefficients: Mapping[str, float]) -> None:
        unknown = [v for v in coefficients if v not in self._upper]
        if unknown:
            raise LPError(f"unknown variables in expression: {unknown}")

    @property
    def num_variables(self) -> int:
        """Number of declared variables."""
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        """Number of constraints added."""
        return len(self._constraints)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self) -> LPSolution:
        """Solve exactly with :func:`simplex` and return an :class:`LPSolution`.

        Raises
        ------
        LPError
            If the LP is unbounded or infeasible, or in neither form (the
            message names the first row with a negative right-hand side).
        """
        if not self._variables:
            raise LPError("no variables declared")
        index = {v: j for j, v in enumerate(self._variables)}
        names: list[str] = []
        matrix: list[dict[int, Number]] = []
        rhs: list[Number] = []
        for name, coeffs, op, bound in self._constraints:
            sign = 1 if op == "<=" else -1
            names.append(name)
            matrix.append({index[var]: sign * coeff for var, coeff in coeffs.items()})
            rhs.append(sign * bound)
        for var, upper in self._upper.items():
            if upper is not None:
                names.append(f"upper[{var}]")
                matrix.append({index[var]: 1})
                rhs.append(upper)
        sense = 1 if self._sense == "max" else -1
        costs = [sense * self._objective.get(v, 0) for v in self._variables]

        primal = all(b >= 0 for b in rhs)
        if not primal and not all(c <= 0 for c in costs):
            row_name = names[next(i for i, b in enumerate(rhs) if b < 0)]
            raise LPError(
                f"LP {self.name!r} is neither a packing LP nor a cover LP: "
                f"row {row_name!r} has a negative right-hand side and the "
                "objective is not a minimisation with non-negative costs")
        try:
            if primal:
                values, duals, optimum = simplex(matrix, rhs, costs)
            else:
                # The dual, max (-b).y subject to (-A^T) y <= -c, is a
                # packing LP; it is unbounded iff the primal is infeasible.
                transposed = [{i: -row[j] for i, row in enumerate(matrix) if j in row}
                              for j in range(len(index))]
                duals, values, optimum = simplex(
                    transposed, [-c for c in costs], [-b for b in rhs])
                optimum = -optimum
        except LPError as exc:
            kind = "unbounded" if primal else "infeasible (its dual is unbounded)"
            raise LPError(f"LP {self.name!r} is {kind}: {exc}") from None
        return LPSolution(
            objective=sense * optimum,
            values=dict(zip(self._variables, values)),
            dual_values=dict(zip(names[:len(self._constraints)], duals)),
        )
