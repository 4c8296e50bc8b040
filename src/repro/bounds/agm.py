"""The AGM bound (Atserias–Grohe–Marx; Corollary 4.2 in the paper).

For a full conjunctive query Q with hypergraph H = ([n], E) and any
fractional edge cover delta of H,

    |Q(D)| <= prod_{F in E} |R_F|^{delta_F},

and the best such bound is obtained by minimizing
``sum_F delta_F * log2 |R_F|`` over the fractional edge cover polytope.
With all relations of size N the optimum is N^{rho*(H)}.

The minimum is one exact simplex solve,
:func:`~repro.covers.edge_cover.cheapest_cover`, in ``Fraction``
arithmetic: nothing numeric is imported.  scipy's ``linprog`` on the
same cover LP is its oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.covers.edge_cover import cheapest_cover
from repro.errors import BoundError
from repro.query.atoms import ConjunctiveQuery
from repro.query.hypergraph import Hypergraph
from repro.relational.database import Database


@dataclass(frozen=True)
class AGMBound:
    """The AGM bound for a specific query and relation sizes.

    Attributes
    ----------
    log2_bound:
        log2 of the bound (``-inf`` when some weighted relation is empty).
    bound:
        The bound itself, ``2 ** log2_bound`` (0 for empty inputs).  May be
        ``inf`` if it overflows a float.
    cover:
        The optimal fractional edge cover weights delta_F, keyed by edge key.
    sizes:
        The relation sizes used, keyed by edge key.
    """

    log2_bound: float
    cover: dict[str, float]
    sizes: dict[str, int]

    @property
    def bound(self) -> float:
        """The bound as a plain number (2 ** log2_bound)."""
        if self.log2_bound == float("-inf"):
            return 0.0
        try:
            return 2.0 ** self.log2_bound
        except OverflowError:  # pragma: no cover - astronomically large bounds
            return float("inf")

    def permits(self, output_size: int, tolerance: float = 1e-9) -> bool:
        """True if an output of ``output_size`` tuples is within the bound."""
        if output_size == 0:
            return True
        if self.log2_bound == float("-inf"):
            return False
        return math.log2(output_size) <= self.log2_bound + tolerance


def agm_bound_from_sizes(hypergraph: Hypergraph, sizes: Mapping[str, int]) -> AGMBound:
    """Compute the AGM bound given a hypergraph and per-edge relation sizes."""
    for key in hypergraph.edge_keys:
        if key not in sizes:
            raise BoundError(f"no size provided for edge {key!r}")
        if sizes[key] < 0:
            raise BoundError(f"negative size for edge {key!r}")

    keys = hypergraph.edge_keys
    if any(sizes[key] == 0 for key in keys):
        # An empty relation forces an empty output; the bound is 0 whatever
        # the cover, so report the unweighted optimum (a rho* vertex).
        cover = cheapest_cover(hypergraph, [1.0] * len(keys))
        return AGMBound(log2_bound=float("-inf"), cover=dict(zip(keys, cover)),
                        sizes=dict(sizes))
    costs = [math.log2(sizes[key]) if sizes[key] > 1 else 0.0 for key in keys]
    cover = cheapest_cover(hypergraph, costs)
    return AGMBound(log2_bound=sum(w * c for w, c in zip(cover, costs)),
                    cover=dict(zip(keys, cover)), sizes=dict(sizes))


def agm_bound(query: ConjunctiveQuery, database: Database) -> AGMBound:
    """The AGM bound of ``query`` on the relation sizes found in ``database``."""
    query.validate_against(database)
    hypergraph = query.hypergraph()
    sizes = {
        query.edge_key(i): len(database.get(atom.relation))
        for i, atom in enumerate(query.atoms)
    }
    return agm_bound_from_sizes(hypergraph, sizes)


def rho_star(query: ConjunctiveQuery) -> float:
    """The fractional edge cover number rho*(Q) of the query hypergraph.

    With every relation of size N the AGM bound is N^{rho*}.
    """
    hypergraph = query.hypergraph()
    return sum(cheapest_cover(hypergraph, [1.0] * hypergraph.num_edges()))
