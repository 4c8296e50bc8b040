"""Tests for the named-variable LP wrapper."""

import pytest

from repro.covers.lp import LinearProgram
from repro.errors import LPError


class TestLinearProgram:
    def test_simple_minimization(self):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.add_variable("y")
        lp.minimize({"x": 1.0, "y": 2.0})
        lp.add_constraint("c1", {"x": 1.0, "y": 1.0}, ">=", 4.0)
        solution = lp.solve()
        assert solution.objective == pytest.approx(4.0)
        assert solution.values["x"] == pytest.approx(4.0)
        assert solution.values["y"] == pytest.approx(0.0)

    def test_simple_maximization(self):
        lp = LinearProgram()
        lp.add_variable("x", upper=3.0)
        lp.maximize({"x": 5.0})
        solution = lp.solve()
        assert solution.objective == pytest.approx(15.0)

    def test_equality_constraint_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.add_variable("y")
        lp.maximize({"x": 1.0, "y": 1.0})
        with pytest.raises(LPError):
            lp.add_constraint("eq", {"x": 1.0, "y": 1.0}, "==", 2.0)

    def test_dual_values_reported(self):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.minimize({"x": 3.0})
        lp.add_constraint("lb", {"x": 1.0}, ">=", 2.0)
        solution = lp.solve()
        # Dual of the binding constraint equals the objective coefficient.
        assert abs(solution.dual_values["lb"]) == pytest.approx(3.0)

    def test_out_of_form_raises_naming_the_row(self):
        # max x over 1 <= x <= 3: feasible, but the slack basis of neither
        # the LP nor its dual is a feasible start.
        lp = LinearProgram()
        lp.add_variable("x", upper=3.0)
        lp.maximize({"x": 1.0})
        lp.add_constraint("floor", {"x": 1.0}, ">=", 1.0)
        with pytest.raises(LPError, match="'floor'"):
            lp.solve()

    def test_infeasible_raises(self):
        # Cover form with an upper bound that conflicts with a >= row.
        lp = LinearProgram()
        lp.add_variable("x", upper=1.0)
        lp.minimize({"x": 1.0})
        lp.add_constraint("c", {"x": 1.0}, ">=", 2.0)
        with pytest.raises(LPError, match="infeasible"):
            lp.solve()

    def test_infeasible_cover_raises(self):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.minimize({"x": 1.0})
        lp.add_constraint("c", {"x": 1.0}, ">=", 2.0)
        lp.add_constraint("uncovered", {}, ">=", 1.0)
        with pytest.raises(LPError, match="infeasible"):
            lp.solve()

    def test_unbounded_raises(self):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.maximize({"x": 1.0})
        with pytest.raises(LPError):
            lp.solve()

    def test_unknown_variable_in_objective(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(LPError):
            lp.minimize({"z": 1.0})

    def test_unknown_variable_in_constraint(self):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.minimize({"x": 1.0})
        with pytest.raises(LPError):
            lp.add_constraint("c", {"z": 1.0}, ">=", 0.0)

    def test_duplicate_variable_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(LPError):
            lp.add_variable("x")

    def test_bad_operator_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(LPError):
            lp.add_constraint("c", {"x": 1.0}, "<", 1.0)

    def test_no_variables_rejected(self):
        with pytest.raises(LPError):
            LinearProgram().solve()

    def test_size_accessors(self):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.add_variable("y")
        lp.minimize({"x": 1.0})
        lp.add_constraint("c", {"x": 1.0}, ">=", 0.0)
        assert lp.num_variables == 2
        assert lp.num_constraints == 1

    def test_solution_getitem(self):
        lp = LinearProgram()
        lp.add_variable("x", upper=2.0)
        lp.maximize({"x": 1.0})
        assert lp.solve()["x"] == pytest.approx(2.0)


class TestSolveLpHelper:
    def test_one_shot_helper(self):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.add_variable("y")
        lp.minimize({"x": 1.0, "y": 1.0})
        lp.add_constraint("c0", {"x": 1.0}, ">=", 1.0)
        lp.add_constraint("c1", {"y": 1.0}, ">=", 2.0)
        assert lp.solve().objective == pytest.approx(3.0)
