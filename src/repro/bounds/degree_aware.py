"""Bound dispatch: pick the right LP for the constraints at hand.

This is the module a query optimizer would call: given a query, a database
and (optionally) a constraint set, return the tightest computable worst-case
output size bound together with which machinery produced it.

Dispatch rules (mirroring the paper's Table 1 and Proposition 4.4):

* cardinality constraints only  -> AGM bound (fractional edge cover LP);
* acyclic degree constraints    -> modular LP (poly-size; equals polymatroid);
* general degree constraints    -> polymatroid LP (exponential-size).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bounds.agm import agm_bound
from repro.bounds.modular import modular_bound
from repro.bounds.polymatroid import polymatroid_bound
from repro.constraints.degree import DegreeConstraintSet, cardinality_constraints
from repro.query.atoms import ConjunctiveQuery
from repro.relational.database import Database


@dataclass(frozen=True)
class OutputSizeBound:
    """A worst-case output size bound and how it was obtained.

    Attributes
    ----------
    log2_bound:
        log2 of the bound (``-inf`` means the output is provably empty).
    method:
        One of ``"agm"``, ``"modular"``, ``"polymatroid"``.
    detail:
        The underlying bound object (AGMBound / ModularBound /
        PolymatroidBound) for callers that need the LP solution.
    """

    log2_bound: float
    method: str
    detail: object

    @property
    def bound(self) -> float:
        """The bound as a plain number."""
        if self.log2_bound == float("-inf"):
            return 0.0
        try:
            return 2.0 ** self.log2_bound
        except OverflowError:  # pragma: no cover
            return float("inf")


def output_size_bound(query: ConjunctiveQuery, database: Database | None = None,
                      dc: DegreeConstraintSet | None = None) -> OutputSizeBound:
    """The tightest computable worst-case output-size bound.

    Parameters
    ----------
    query:
        The conjunctive query.
    database:
        Needed when ``dc`` is None (cardinalities are read off the data) or
        when the AGM path is taken.
    dc:
        Explicit degree constraints.  When omitted, the cardinality
        constraints implied by the database are used and the AGM bound is
        returned.
    """
    if dc is None:
        if database is None:
            raise ValueError("either a database or a constraint set is required")
        dc = cardinality_constraints(query, database)

    if dc.only_cardinalities() and database is not None:
        detail = agm_bound(query, database)
        return OutputSizeBound(log2_bound=detail.log2_bound, method="agm", detail=detail)

    if dc.is_acyclic():
        detail = modular_bound(dc)
        return OutputSizeBound(log2_bound=detail.log2_bound, method="modular", detail=detail)

    detail = polymatroid_bound(dc)
    return OutputSizeBound(log2_bound=detail.log2_bound, method="polymatroid", detail=detail)
