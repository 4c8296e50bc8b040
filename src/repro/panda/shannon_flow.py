"""Shannon-flow inequalities (Definition 5) and their extraction from LPs.

A Shannon-flow inequality is

    h([n]) <= sum_{(X,Y)} delta_{Y|X} * h(Y | X)      for all polymatroids h,

with delta >= 0.  Two facts from the paper drive how we use them:

* Proposition 5.4: validity is equivalent to the existence of a feasible
  dual solution of LP (72); here we *decide* validity with the Shannon
  inequality prover of :mod:`repro.infotheory.shannon` (the LP over the
  polymatroid cone), which is an equivalent check.
* Strong duality (eq. 73): at the optimum of the polymatroid-bound LP the
  dual values of the degree constraints form exactly such a delta with
  ``bound = <delta, n>``, so the coefficient vector PANDA needs falls out of
  the bound computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from repro.bounds.polymatroid import PolymatroidBound, polymatroid_bound
from repro.constraints.degree import DegreeConstraintSet
from repro.errors import ProofError
from repro.infotheory.set_functions import SetFunction
from repro.infotheory.shannon import LinearEntropyExpression, is_shannon_valid
from repro.panda.terms import ConditionalTerm, TermBag


@dataclass(frozen=True)
class ShannonFlowInequality:
    """The inequality h(V) <= sum delta_{Y|X} h(Y|X).

    Attributes
    ----------
    variables:
        The ground set V (ordered, for reporting).
    coefficients:
        Mapping from :class:`ConditionalTerm` to its (non-negative) weight.
    """

    variables: tuple[str, ...]
    coefficients: tuple[tuple[ConditionalTerm, Fraction], ...]

    @classmethod
    def from_terms(cls, variables: Sequence[str],
                   coefficients: Mapping[ConditionalTerm, Fraction | int | str]
                   ) -> "ShannonFlowInequality":
        """Build an inequality from a term -> weight mapping."""
        ground = set(variables)
        items = []
        for term, weight in coefficients.items():
            weight = Fraction(weight)
            if weight < 0:
                raise ProofError(f"negative coefficient for {term}")
            if not term.y <= ground:
                raise ProofError(f"term {term} uses variables outside {sorted(ground)}")
            if weight > 0:
                items.append((term, weight))
        items.sort(key=lambda kv: (len(kv[0].y), str(kv[0])))
        return cls(variables=tuple(variables), coefficients=tuple(items))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def term_bag(self) -> TermBag:
        """The right-hand side as a weighted term bag (a fresh copy)."""
        return TermBag(dict(self.coefficients))

    def expression(self) -> LinearEntropyExpression:
        """RHS - LHS as a linear entropy expression (>= 0 iff the inequality
        holds for a given h)."""
        coefficients: dict[frozenset[str], float] = {}
        for term, weight in self.coefficients:
            coefficients[term.y] = coefficients.get(term.y, 0.0) + float(weight)
            if term.x:
                coefficients[term.x] = coefficients.get(term.x, 0.0) - float(weight)
        full = frozenset(self.variables)
        coefficients[full] = coefficients.get(full, 0.0) - 1.0
        return LinearEntropyExpression.from_dict(self.variables, coefficients)

    def holds_for(self, h: SetFunction, tolerance: float = 1e-9) -> bool:
        """Check the inequality on one concrete set function."""
        return self.expression().evaluate(h) >= -tolerance

    def is_valid(self) -> bool:
        """Decide whether the inequality holds for every polymatroid."""
        return is_shannon_valid(self.expression())

    def weighted_log_bound(self, log_bounds: Mapping[ConditionalTerm, float]) -> float:
        """<delta, n>: the runtime/bound exponent sum delta_{Y|X} log2 N_{Y|X}."""
        total = 0.0
        for term, weight in self.coefficients:
            if term not in log_bounds:
                raise ProofError(f"no statistic provided for term {term}")
            total += float(weight) * log_bounds[term]
        return total

    def __str__(self) -> str:
        rhs = " + ".join(f"{weight}*{term}" for term, weight in self.coefficients)
        return f"h({''.join(sorted(self.variables))}) <= {rhs}"


def shannon_flow_from_constraints(dc: DegreeConstraintSet,
                                  weights: Mapping[int, Fraction | float | int]
                                  ) -> ShannonFlowInequality:
    """Build the Shannon-flow inequality whose terms are DC's constraints.

    ``weights`` maps the index of each constraint in ``dc`` to its
    coefficient delta_{Y|X}; constraints with zero weight are dropped.
    """
    coefficients: dict[ConditionalTerm, Fraction] = {}
    for index, weight in weights.items():
        if index < 0 or index >= len(dc):
            raise ProofError(f"constraint index {index} out of range")
        weight = Fraction(weight)
        if weight == 0:
            continue
        constraint = dc.constraints[index]
        term = ConditionalTerm(y=constraint.y, x=constraint.x)
        coefficients[term] = coefficients.get(term, Fraction(0)) + weight
    return ShannonFlowInequality.from_terms(dc.variables, coefficients)


def constraint_log_bounds(dc: DegreeConstraintSet) -> dict[ConditionalTerm, float]:
    """Map each constraint's term to log2 of its numeric bound (n_{Y|X})."""
    bounds: dict[ConditionalTerm, float] = {}
    for constraint in dc:
        term = ConditionalTerm(y=constraint.y, x=constraint.x)
        existing = bounds.get(term)
        value = constraint.log_bound
        # Multiple guards for the same (X, Y): keep the tightest statistic.
        bounds[term] = value if existing is None else min(existing, value)
    return bounds


def extract_flow_from_polymatroid_dual(dc: DegreeConstraintSet,
                                       result: PolymatroidBound | None = None,
                                       ) -> ShannonFlowInequality:
    """The Shannon-flow inequality of the polymatroid-bound LP's duals (eq. 73).

    Reads the exact dual weight of every degree constraint off ``result``
    (solving the polymatroid bound only when it is not supplied).  By LP
    duality the inequality is valid and its weighted log bound equals the
    polymatroid bound; both facts are verified by the caller-facing tests
    rather than assumed here.

    Raises
    ------
    ProofError
        If ``result`` comes from the LP strengthened by Zhang–Yeung rows:
        its degree-constraint duals leave out those rows' share.
    """
    if result is None:
        result = polymatroid_bound(dc)
    if result.zhang_yeung:
        raise ProofError("a Shannon-flow inequality is read off the plain "
                         "polymatroid LP (68), not one with Zhang–Yeung rows")
    return shannon_flow_from_constraints(dc, result.dual_weights)
