"""A thin, named-variable linear-programming layer on top of scipy.

All the bounds in the paper are optimal values of linear programs (the
fractional edge cover LP, the polymatroid LP (68), the modular LP (54) and
its dual (57), the Shannon-flow dual (72)).  Building those LPs directly as
coefficient matrices is error prone, so this module provides a small model
class with named variables and named constraints; it converts to the scipy
``linprog`` standard form internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import LPError


@dataclass
class LPSolution:
    """Solution of a linear program.

    Attributes
    ----------
    status:
        scipy status string ("optimal" when solved).
    objective:
        Optimal objective value (in the *original* sense: max problems report
        the max).
    values:
        Variable name -> optimal value.
    dual_values:
        Constraint name -> dual value (marginals), when available.
    """

    status: str
    objective: float
    values: dict[str, float]
    dual_values: dict[str, float] = field(default_factory=dict)

    def __getitem__(self, variable: str) -> float:
        return self.values[variable]


class LinearProgram:
    """A linear program with named variables and constraints.

    The canonical sense is *minimization*; call :meth:`maximize` /
    :meth:`minimize` to set the objective.  Variables are non-negative by
    default with no upper bound; override with :meth:`set_bounds`.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self._variables: list[str] = []
        self._objective: dict[str, float] = {}
        self._sense: str = "min"
        # Each constraint: (name, {var: coeff}, op, rhs) with op in {<=, ==, >=}.
        self._constraints: list[tuple[str, dict[str, float], str, float]] = []
        self._bounds: dict[str, tuple[float | None, float | None]] = {}

    # ------------------------------------------------------------------
    # Model building
    # ------------------------------------------------------------------
    def add_variable(self, name: str, lower: float | None = 0.0,
                     upper: float | None = None) -> str:
        """Declare a variable; returns its name for convenience."""
        if name in self._bounds:
            raise LPError(f"variable {name!r} declared twice")
        self._variables.append(name)
        self._bounds[name] = (lower, upper)
        return name

    def set_bounds(self, name: str, lower: float | None, upper: float | None) -> None:
        """Override the bounds of an existing variable."""
        if name not in self._bounds:
            raise LPError(f"unknown variable {name!r}")
        self._bounds[name] = (lower, upper)

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
        """Add a constraint ``sum coeff*var  op  rhs`` with op in <=, >=, ==."""
        if op not in ("<=", ">=", "=="):
            raise LPError(f"unsupported constraint operator {op!r}")
        self._check_known(coefficients)
        self._constraints.append((name, dict(coefficients), op, rhs))

    def _check_known(self, coefficients: Mapping[str, float]) -> None:
        unknown = [v for v in coefficients if v not in self._bounds]
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
        """Solve with scipy's HiGHS backend and return an :class:`LPSolution`.

        Raises
        ------
        LPError
            If the problem is infeasible, unbounded, or the solver fails.
        """
        # Imported here, not at module top: building an LP *model* is pure
        # Python, and the core planner layers must stay importable on
        # installs without the numeric stack (tools/check_no_numpy_in_core).
        import numpy as np  # lint: disable=import-layering -- solve() serves the bounds and experiments, never the query path; lazy so LP *models* build on installs without the numeric stack
        from scipy.optimize import linprog  # lint: disable=import-layering -- same seam as numpy above: only solving, never modeling, touches scipy

        if not self._variables:
            raise LPError("no variables declared")
        index = {v: i for i, v in enumerate(self._variables)}
        n = len(self._variables)

        sign = 1.0 if self._sense == "min" else -1.0
        c = np.zeros(n)
        for var, coeff in self._objective.items():
            c[index[var]] = sign * coeff

        a_ub_rows: list[np.ndarray] = []
        b_ub: list[float] = []
        ub_names: list[str] = []
        a_eq_rows: list[np.ndarray] = []
        b_eq: list[float] = []
        eq_names: list[str] = []
        for name, coeffs, op, rhs in self._constraints:
            row = np.zeros(n)
            for var, coeff in coeffs.items():
                row[index[var]] += coeff
            if op == "<=":
                a_ub_rows.append(row)
                b_ub.append(rhs)
                ub_names.append(name)
            elif op == ">=":
                a_ub_rows.append(-row)
                b_ub.append(-rhs)
                ub_names.append(name)
            else:
                a_eq_rows.append(row)
                b_eq.append(rhs)
                eq_names.append(name)

        bounds = [self._bounds[v] for v in self._variables]
        result = linprog(
            c,
            A_ub=np.array(a_ub_rows) if a_ub_rows else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq_rows) if a_eq_rows else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=bounds,
            method="highs",
        )
        if not result.success:
            raise LPError(
                f"LP {self.name!r} failed: {result.message} (status={result.status})"
            )
        values = {v: float(result.x[index[v]]) for v in self._variables}
        objective = float(result.fun) * sign

        dual_values: dict[str, float] = {}
        marginals_ub = getattr(getattr(result, "ineqlin", None), "marginals", None)
        marginals_eq = getattr(getattr(result, "eqlin", None), "marginals", None)
        if marginals_ub is not None:
            for name, marginal in zip(ub_names, marginals_ub):
                dual_values[name] = float(sign * marginal)
        if marginals_eq is not None:
            for name, marginal in zip(eq_names, marginals_eq):
                dual_values[name] = float(sign * marginal)

        return LPSolution(
            status="optimal",
            objective=objective,
            values=values,
            dual_values=dual_values,
        )
