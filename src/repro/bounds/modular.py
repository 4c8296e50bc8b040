"""The modular LP (54) and its dual (57) for acyclic degree constraints.

Proposition 4.4: when the constraint dependency graph G_DC is acyclic,

    max { h([n]) : h in M_n ∩ H_DC }
  = max { h([n]) : h in Gamma*_n-closure ∩ H_DC }
  = max { h([n]) : h in Gamma_n ∩ H_DC },

and the left-hand LP has only n variables (one per query variable):

    max  sum_i v_i
    s.t. sum_{i in Y - X} v_i <= log2 N_{Y|X}   for every (X, Y, N) in DC
         v_i >= 0.

Its dual (57) generalizes the AGM-bound LP: minimize
``sum delta_{Y|X} log2 N_{Y|X}`` subject to every variable being "covered"
with total delta-weight at least 1 by constraints whose free set contains it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.constraints.acyclify import all_variables_bound
from repro.constraints.degree import DegreeConstraintSet
from repro.covers.lp import LinearProgram
from repro.errors import UnboundedQueryError
from repro.infotheory.set_functions import SetFunction, modular_from_singletons


@dataclass(frozen=True)
class ModularBound:
    """Result of the modular (primal) LP and its dual.

    Attributes
    ----------
    log2_bound:
        Optimal value of the primal LP (= dual LP by strong duality).
    vertex_values:
        Optimal v_i per variable (the modular function's singleton values).
    dual_weights:
        Optimal dual weights delta_{Y|X} keyed by constraint index in DC.
    num_lp_variables / num_lp_constraints:
        Size of the primal LP (polynomial in n and |DC|).
    """

    log2_bound: float
    vertex_values: dict[str, float]
    dual_weights: dict[int, float]
    num_lp_variables: int
    num_lp_constraints: int

    @property
    def bound(self) -> float:
        """The bound as a plain number (2 ** log2_bound)."""
        try:
            return 2.0 ** self.log2_bound
        except OverflowError:  # pragma: no cover
            return float("inf")

    def modular_function(self, variables: tuple[str, ...]) -> SetFunction:
        """The optimal modular set function f(S) = sum_{i in S} v_i."""
        return modular_from_singletons(variables, self.vertex_values)


def modular_bound(dc: DegreeConstraintSet) -> ModularBound:
    """Solve the primal modular LP (54) and report primal and dual optima.

    The LP is meaningful for any DC, but it equals the polymatroid bound
    only when DC is acyclic (Proposition 4.4); callers that care should check
    ``dc.is_acyclic()``.

    A constraint with bound 0 (an empty relation) makes the LP infeasible;
    the provably-empty ``-inf`` bound is returned without solving.

    Raises
    ------
    UnboundedQueryError
        If some variable is unbounded (no constraint's free set covers it
        reachable from cardinalities), making the LP unbounded.
    """
    for i, constraint in enumerate(dc):
        if constraint.bound == 0:
            # An empty guard relation: log2 0 = -inf would make the LP
            # infeasible, and the output is provably empty.  As
            # agm_bound_from_sizes does for an empty edge, report -inf
            # with all the dual weight on this constraint.
            return ModularBound(
                log2_bound=float("-inf"),
                vertex_values={v: 0.0 for v in dc.variables},
                dual_weights={j: float(j == i) for j in range(len(dc))},
                num_lp_variables=0,
                num_lp_constraints=0,
            )
    if not all_variables_bound(dc):
        raise UnboundedQueryError(
            "modular bound is infinite: some variable is not bound by the constraints"
        )
    lp = LinearProgram("modular-bound")
    for variable in dc.variables:
        lp.add_variable(f"v[{variable}]")
    lp.maximize({f"v[{variable}]": 1.0 for variable in dc.variables})
    for i, constraint in enumerate(dc):
        coeffs = {f"v[{variable}]": 1.0 for variable in constraint.free_variables}
        lp.add_constraint(f"dc[{i}]", coeffs, "<=", constraint.log_bound)
    solution = lp.solve()
    return ModularBound(
        log2_bound=float(solution.objective),
        vertex_values={v: float(solution.values[f"v[{v}]"]) for v in dc.variables},
        dual_weights={i: float(solution.dual_values[f"dc[{i}]"]) for i in range(len(dc))},
        num_lp_variables=lp.num_variables,
        num_lp_constraints=lp.num_constraints,
    )


def modular_bound_dual(dc: DegreeConstraintSet) -> ModularBound:
    """The dual LP (57), read off the solve of (54).

    min  sum_{(X,Y,N) in DC} delta_{Y|X} * log2 N_{Y|X}
    s.t. sum_{(X,Y) in DC, i in Y-X} delta_{Y|X} >= 1   for every variable i
         delta >= 0.

    (57) is (54)'s LP dual: its optimal delta are (54)'s exact duals and
    its duals are (54)'s optimal v, so this is :func:`modular_bound`'s
    result with (57)'s LP size, and the two optima are equal.
    """
    primal = modular_bound(dc)
    return replace(primal, num_lp_variables=primal.num_lp_constraints,
                   num_lp_constraints=primal.num_lp_variables)
