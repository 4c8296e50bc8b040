"""A prover for Shannon-type inequalities.

A *Shannon-type inequality* is a linear inequality sum_S c_S h(S) >= 0 that
holds for every polymatroid h in Gamma_n (and therefore for every entropic
function).  Deciding validity reduces to a linear program: minimize the
left-hand side over the polymatroid cone intersected with a box; the optimum
is 0 exactly when the inequality is valid, and any strictly negative optimum
comes with an explicit polymatroid counterexample.

This machinery is what Section 2's "Second Algorithm" and Section 5.2's
Shannon-flow inequalities are built on, and it lets the test-suite verify
Shearer's inequality, the specific inequality (20), the Example 1 inequality,
and the *failure* of the Zhang–Yeung inequality over Gamma_4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.covers.lp import LinearProgram
from repro.errors import LPError
from repro.infotheory.set_functions import SetFunction, all_subsets


def _subset_key(subset: frozenset[str]) -> str:
    return "h[" + ",".join(sorted(subset)) + "]"


@dataclass(frozen=True)
class LinearEntropyExpression:
    """A linear expression sum_S c_S h(S) over subsets of a ground set.

    The expression is stored as a mapping from subsets to coefficients; the
    empty set is allowed but its coefficient is irrelevant (h(0) = 0).
    """

    ground_set: frozenset[str]
    coefficients: tuple[tuple[frozenset[str], float], ...]

    @classmethod
    def from_dict(cls, ground_set: Iterable[str],
                  coefficients: Mapping[Iterable[str] | frozenset[str], float]
                  ) -> "LinearEntropyExpression":
        """Build an expression from a subset -> coefficient mapping."""
        ground = frozenset(ground_set)
        normalized: dict[frozenset[str], float] = {}
        for key, value in coefficients.items():
            subset = frozenset(key)
            if not subset <= ground:
                raise LPError(
                    f"subset {sorted(subset)} not contained in ground set {sorted(ground)}"
                )
            normalized[subset] = normalized.get(subset, 0.0) + float(value)
        items = tuple(sorted(normalized.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))))
        return cls(ground_set=ground, coefficients=items)

    def as_dict(self) -> dict[frozenset[str], float]:
        """The subset -> coefficient mapping (a copy)."""
        return dict(self.coefficients)

    def evaluate(self, h: SetFunction) -> float:
        """Evaluate the expression on a concrete set function."""
        return sum(c * h(s) for s, c in self.coefficients if s)

    def scaled(self, factor: float) -> "LinearEntropyExpression":
        """The expression multiplied by ``factor``."""
        return LinearEntropyExpression.from_dict(
            self.ground_set, {s: factor * c for s, c in self.coefficients}
        )

    def plus(self, other: "LinearEntropyExpression") -> "LinearEntropyExpression":
        """Sum of two expressions over the same ground set."""
        if other.ground_set != self.ground_set:
            raise LPError("cannot add expressions over different ground sets")
        combined: dict[frozenset[str], float] = dict(self.coefficients)
        for s, c in other.coefficients:
            combined[s] = combined.get(s, 0.0) + c
        return LinearEntropyExpression.from_dict(self.ground_set, combined)

    def __str__(self) -> str:
        parts = []
        for s, c in self.coefficients:
            if not s or abs(c) < 1e-12:
                continue
            parts.append(f"{c:+.3g}*h({','.join(sorted(s))})")
        return " ".join(parts) if parts else "0"


def elemental_inequalities(ground_set: Iterable[str]
                           ) -> Iterator[LinearEntropyExpression]:
    """Yield the elemental Shannon inequalities (each as an expression >= 0).

    * Monotonicity:   h(V) - h(V - {i}) >= 0 for every element i.
    * Submodularity:  h(S+i) + h(S+j) - h(S+i+j) - h(S) >= 0 for every pair
      i != j and every S disjoint from {i, j}.

    Every Shannon-type inequality is a non-negative combination of these.
    """
    ground = frozenset(ground_set)
    elements = sorted(ground)
    full = frozenset(elements)
    for i in elements:
        yield LinearEntropyExpression.from_dict(
            ground, {full: 1.0, full - {i}: -1.0}
        )
    for a_idx in range(len(elements)):
        for b_idx in range(a_idx + 1, len(elements)):
            i, j = elements[a_idx], elements[b_idx]
            rest = ground - {i, j}
            for s in all_subsets(rest):
                yield LinearEntropyExpression.from_dict(
                    ground,
                    {
                        s | {i}: 1.0,
                        s | {j}: 1.0,
                        s | {i, j}: -1.0,
                        s: -1.0,
                    },
                )


def _polymatroid_lp(ground_set: frozenset[str], box: float) -> LinearProgram:
    """An LP whose feasible region is Gamma_n intersected with [0, box]^(2^n)."""
    lp = LinearProgram("polymatroid-cone")
    for subset in all_subsets(ground_set):
        if not subset:
            continue
        lp.add_variable(_subset_key(subset), upper=box)
    for idx, ineq in enumerate(elemental_inequalities(ground_set)):
        coeffs = {
            _subset_key(s): c for s, c in ineq.coefficients if s
        }
        lp.add_constraint(f"elemental[{idx}]", coeffs, ">=", 0.0)
    return lp


def _minimize_over_polymatroids(expression: LinearEntropyExpression,
                                box: float = 1.0
                                ) -> tuple[float, SetFunction]:
    lp = _polymatroid_lp(expression.ground_set, box)
    lp.minimize({_subset_key(s): c for s, c in expression.coefficients if s})
    solution = lp.solve()
    values = {
        subset: float(solution.values[_subset_key(subset)])
        for subset in all_subsets(expression.ground_set)
        if subset
    }
    values[frozenset()] = 0.0
    witness = SetFunction(expression.ground_set, values)
    return float(solution.objective), witness


def is_shannon_valid(expression: LinearEntropyExpression,
                     tolerance: float = 1e-7) -> bool:
    """Decide whether ``expression >= 0`` holds for every polymatroid.

    Because the polymatroid cone is scale-invariant, minimizing the
    expression over the cone intersected with a unit box is 0 iff the
    inequality is valid and strictly negative iff it fails.
    """
    minimum, _ = _minimize_over_polymatroids(expression)
    return minimum >= -tolerance


def find_polymatroid_counterexample(expression: LinearEntropyExpression,
                                    tolerance: float = 1e-7
                                    ) -> SetFunction | None:
    """Return a polymatroid h with ``expression(h) < 0``, or None if the
    inequality is Shannon-valid."""
    minimum, witness = _minimize_over_polymatroids(expression)
    if minimum >= -tolerance:
        return None
    return witness
