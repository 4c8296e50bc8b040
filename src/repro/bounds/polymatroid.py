"""The polymatroid bound (Theorem 4.3, linear program (68)).

    log2 sup_{D |= DC} |Q(D)|  <=  max { h([n]) : h in Gamma_n ∩ H_DC }

where H_DC = { h : h(Y) - h(X) <= log2 N_{Y|X} for every (X, Y, N) in DC }.
The LP has one variable per non-empty subset of the query variables and the
elemental Shannon inequalities as constraints; it is exponential in query
size (as the paper notes) but easily solvable at query scale.

An optional strengthening adds Zhang–Yeung instances (over every ordered
4-tuple of variables) to the constraint set, yielding a bound at least as
tight as the polymatroid bound and still an upper bound on the entropic
bound — this is the knob used in the Table 1 experiment to exhibit the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from repro.constraints.acyclify import all_variables_bound
from repro.constraints.degree import DegreeConstraintSet
from repro.covers.lp import LinearProgram
from repro.errors import UnboundedQueryError
from repro.infotheory.nonshannon import zhang_yeung_expression
from repro.infotheory.set_functions import SetFunction, all_subsets
from repro.infotheory.shannon import elemental_inequalities


def _key(subset: frozenset[str]) -> str:
    return "h[" + ",".join(sorted(subset)) + "]"


@dataclass(frozen=True)
class PolymatroidBound:
    """Result of the polymatroid-bound LP.

    Attributes
    ----------
    log2_bound:
        The optimal objective max h([n]).
    optimal_h:
        An optimizer h* as a :class:`SetFunction` (a polymatroid in H_DC).
    dual_weights:
        The exact optimal dual delta_{Y|X} of every degree constraint, keyed
        by its index in DC: the Shannon-flow coefficients of eq. (73) when
        the LP is the plain (68).
    zhang_yeung:
        Whether the LP also imposed Zhang–Yeung rows.  Their duals are not
        in ``dual_weights``, so those weights alone need not form a valid
        Shannon-flow inequality.
    num_lp_variables / num_lp_constraints:
        LP size, reported for the complexity discussion of Section 4.2.
    """

    log2_bound: float
    optimal_h: SetFunction
    dual_weights: dict[int, Fraction]
    zhang_yeung: bool
    num_lp_variables: int
    num_lp_constraints: int

    @property
    def tight_constraints(self) -> tuple[str, ...]:
        """Names ``dc[i]`` of the degree constraints with non-zero dual."""
        return tuple(f"dc[{i}]" for i, weight in self.dual_weights.items() if weight)

    @property
    def bound(self) -> float:
        """The bound as a plain number (2 ** log2_bound)."""
        try:
            return 2.0 ** self.log2_bound
        except OverflowError:  # pragma: no cover
            return float("inf")


def polymatroid_bound(dc: DegreeConstraintSet,
                      use_zhang_yeung: bool = False) -> PolymatroidBound:
    """Solve LP (68): maximize h(V) over Gamma_n ∩ H_DC.

    Parameters
    ----------
    dc:
        The degree constraints; every constraint contributes
        ``h(Y) - h(X) <= log2 N``.
    use_zhang_yeung:
        When True and the query has at least 4 variables, also impose every
        instance of the Zhang–Yeung non-Shannon inequality.  The result is
        then a (possibly strictly) tighter upper bound that still dominates
        the entropic bound.

    Raises
    ------
    UnboundedQueryError
        If some variable is not bound by DC (the LP would be unbounded).
    """
    variables = dc.variables
    for i, constraint in enumerate(dc):
        if constraint.bound == 0:
            # An empty guard relation: h(Y) - h(X) <= log2 0 makes the LP
            # infeasible (monotone h has h(Y) >= h(X)); the output is
            # provably empty, so report -inf with the zero polymatroid
            # rather than handing the solver an infinite right-hand side.
            return PolymatroidBound(
                log2_bound=float("-inf"),
                optimal_h=SetFunction(
                    variables,
                    {s: 0.0 for s in all_subsets(variables)},
                ),
                dual_weights={j: Fraction(int(j == i)) for j in range(len(dc))},
                zhang_yeung=False,
                num_lp_variables=0,
                num_lp_constraints=0,
            )
    if not all_variables_bound(dc):
        raise UnboundedQueryError(
            "polymatroid bound is infinite: some variable is not bound by the "
            "degree constraints"
        )

    lp = LinearProgram("polymatroid-bound")
    for subset in all_subsets(variables):
        if subset:
            lp.add_variable(_key(subset))

    full = frozenset(variables)
    lp.maximize({_key(full): 1.0})

    for i, constraint in enumerate(dc):
        coeffs: dict[str, float] = {_key(constraint.y): 1.0}
        if constraint.x:
            coeffs[_key(constraint.x)] = coeffs.get(_key(constraint.x), 0.0) - 1.0
        lp.add_constraint(f"dc[{i}]", coeffs, "<=", constraint.log_bound)

    count = 0
    for ineq in elemental_inequalities(variables):
        coeffs = {_key(s): c for s, c in ineq.coefficients if s}
        lp.add_constraint(f"shannon[{count}]", coeffs, ">=", 0.0)
        count += 1

    zhang_yeung = use_zhang_yeung and len(variables) >= 4
    if zhang_yeung:
        zy_count = 0
        for quad in permutations(variables, 4):
            expr = zhang_yeung_expression(quad)
            coeffs = {}
            for s, c in expr.coefficients:
                if s:
                    coeffs[_key(s)] = coeffs.get(_key(s), 0.0) + c
            lp.add_constraint(f"zy[{zy_count}]", coeffs, ">=", 0.0)
            zy_count += 1

    solution = lp.solve()
    values = {s: float(solution.values[_key(s)]) for s in all_subsets(variables) if s}
    values[frozenset()] = 0.0
    return PolymatroidBound(
        log2_bound=float(solution.objective),
        optimal_h=SetFunction(variables, values),
        dual_weights={i: solution.dual_values[f"dc[{i}]"] for i in range(len(dc))},
        zhang_yeung=zhang_yeung,
        num_lp_variables=lp.num_variables,
        num_lp_constraints=lp.num_constraints,
    )
