"""The exact simplex against scipy's HiGHS on the bounds' own LP models.

Every bound LP is a ``LinearProgram``; each model below is captured as its
bound builds and solves it, and ``scipy.optimize.linprog`` then solves the
same model independently.  On every maximisation (the polymatroid LP (68)
and the modular LP (54)) the exact duals must also certify the optimum:
``sum dual * rhs == objective``, as Fractions.
"""

from fractions import Fraction

import pytest
from scipy.optimize import linprog

from repro.bounds.modular import modular_bound
from repro.bounds.polymatroid import polymatroid_bound
from repro.constraints.degree import (
    DegreeConstraint,
    DegreeConstraintSet,
    cardinality_constraints,
)
from repro.covers.lp import LinearProgram
from repro.datagen.worstcase import triangle_agm_tight_instance
from repro.infotheory.nonshannon import zhang_yeung_expression
from repro.infotheory.shannon import is_shannon_valid
from repro.infotheory.shearer import shearer_expression
from repro.panda.example1 import example1_constraints
from repro.query.atoms import triangle_query


def _triangle_dc():
    query, database = triangle_agm_tight_instance(144)
    return cardinality_constraints(query, database)


def _triangle_fd_dc():
    return DegreeConstraintSet(("A", "B", "C"), [
        DegreeConstraint.cardinality(("A", "B"), 100, guard="R"),
        DegreeConstraint.cardinality(("B", "C"), 100, guard="S"),
        DegreeConstraint.cardinality(("A", "C"), 100, guard="T"),
        DegreeConstraint.functional_dependency(("B",), ("C",), guard="S"),
    ])


def _chain_dc():
    return DegreeConstraintSet(("A", "B", "C", "D"), [
        DegreeConstraint.cardinality(("A", "B"), 128, guard="R"),
        DegreeConstraint(x=frozenset("B"), y=frozenset("BC"), bound=3, guard="S"),
        DegreeConstraint(x=frozenset("C"), y=frozenset("CD"), bound=3, guard="T"),
    ])


def _example1_dc():
    return example1_constraints(64, 64, 64, 4, 4)


def _shearer_triangle():
    hypergraph = triangle_query().hypergraph()
    return shearer_expression(hypergraph, dict.fromkeys(hypergraph.edge_keys, 0.5))


MODELS = {
    "modular chain": lambda: modular_bound(_chain_dc()),
    "modular example1": lambda: modular_bound(_example1_dc()),
    "polymatroid triangle": lambda: polymatroid_bound(_triangle_dc()),
    "polymatroid triangle + FD": lambda: polymatroid_bound(_triangle_fd_dc()),
    "polymatroid chain": lambda: polymatroid_bound(_chain_dc()),
    "polymatroid example1": lambda: polymatroid_bound(_example1_dc()),
    "polymatroid example1 + ZY": lambda: polymatroid_bound(
        _example1_dc(), use_zhang_yeung=True),
    "Shannon cone: Shearer triangle": lambda: is_shannon_valid(_shearer_triangle()),
    "Shannon cone: Zhang-Yeung": lambda: is_shannon_valid(zhang_yeung_expression()),
}


def _normal_rows(lp):
    """(name, row, rhs) of ``lp``'s constraints as ``row . x <= rhs``."""
    index = {v: j for j, v in enumerate(lp._variables)}
    for name, coeffs, op, rhs in lp._constraints:
        sign = 1 if op == "<=" else -1
        row = [0.0] * len(index)
        for var, coeff in coeffs.items():
            row[index[var]] = sign * coeff
        yield name, row, sign * rhs


def _highs_objective(lp):
    sign = -1 if lp._sense == "max" else 1
    rows = list(_normal_rows(lp))
    result = linprog([sign * lp._objective.get(v, 0.0) for v in lp._variables],
                     A_ub=[row for _, row, _ in rows] or None,
                     b_ub=[rhs for _, _, rhs in rows] or None,
                     bounds=[(0, lp._upper[v]) for v in lp._variables],
                     method="highs")
    assert result.success, result.message
    return sign * result.fun


@pytest.mark.parametrize("name", sorted(MODELS))
def test_solve_matches_highs_on_the_bound_models(name, monkeypatch):
    solved = []
    solve = LinearProgram.solve

    def capture(lp):
        solution = solve(lp)
        solved.append((lp, solution))
        return solution

    monkeypatch.setattr(LinearProgram, "solve", capture)
    MODELS[name]()
    assert len(solved) == 1
    lp, solution = solved[0]
    assert float(solution.objective) == pytest.approx(
        _highs_objective(lp), rel=1e-9, abs=1e-9)
    if lp._sense == "max" and not any(u is not None for u in lp._upper.values()):
        certificate = sum(solution.dual_values[row_name] * Fraction(rhs)
                          for row_name, _, rhs in _normal_rows(lp))
        assert certificate == solution.objective
