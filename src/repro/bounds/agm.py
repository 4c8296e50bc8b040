"""The AGM bound (Atserias–Grohe–Marx; Corollary 4.2 in the paper).

For a full conjunctive query Q with hypergraph H = ([n], E) and any
fractional edge cover delta of H,

    |Q(D)| <= prod_{F in E} |R_F|^{delta_F},

and the best such bound is obtained by minimizing
``sum_F delta_F * log2 |R_F|`` over the fractional edge cover polytope.
With all relations of size N the optimum is N^{rho*(H)}.

The polytope depends only on H and the minimum sits at one of its
vertices, so the bound is a minimum over
:func:`~repro.covers.edge_cover.cover_vertices`' table, enumerated once
per hypergraph shape: no LP is solved and nothing numeric is imported.
The LP (:func:`~repro.covers.edge_cover.weighted_fractional_edge_cover`)
is the oracle the table is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.covers.edge_cover import cover_vertices
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
    table = cover_vertices(hypergraph)
    if any(sizes[key] == 0 for key in keys):
        # An empty relation forces an empty output; the bound is 0 whatever
        # the cover, so report the unweighted optimum (a rho* vertex).
        cover, _ = _cheapest(table, [1.0] * len(keys))
        return AGMBound(log2_bound=float("-inf"), cover=dict(zip(keys, cover)),
                        sizes=dict(sizes))
    costs = [math.log2(sizes[key]) if sizes[key] > 1 else 0.0 for key in keys]
    cover, log2_bound = _cheapest(table, costs)
    return AGMBound(log2_bound=log2_bound, cover=dict(zip(keys, cover)),
                    sizes=dict(sizes))


def _cheapest(table: Sequence[tuple[float, ...]], costs: Sequence[float]
              ) -> tuple[tuple[float, ...], float]:
    """The first vertex of ``table`` whose cost is the minimum, and that cost.

    Costs within rounding (1e-12 relative) of the minimum count as equal,
    so a tie goes to the earlier vertex whatever the summation order.
    """
    values = [sum(w * c for w, c in zip(vertex, costs)) for vertex in table]
    low = min(values)
    slack = 1e-12 * max(1.0, abs(low))
    return next((vertex, value) for vertex, value in zip(table, values)
                if value <= low + slack)


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
    return _cheapest(cover_vertices(hypergraph),
                     [1.0] * hypergraph.num_edges())[1]
