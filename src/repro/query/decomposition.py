"""Hypergraph acyclicity (GYO) and join trees.

Alpha-acyclicity is the classical notion under which a conjunctive query can
be answered in O(input + output) by Yannakakis' algorithm; cyclic queries
(triangles, Loomis–Whitney, cliques) are exactly the ones for which WCOJ
algorithms beat every pairwise plan.  The GYO (Graham / Yu–Ozsoyoglu) ear
removal procedure both decides acyclicity and, when acyclic, yields a join
tree.  We use it in tests and in the optimizer to recognise the easy cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.query.hypergraph import Hypergraph


@dataclass
class GYOResult:
    """Result of a GYO reduction.

    Attributes
    ----------
    acyclic:
        True when the hypergraph is alpha-acyclic.
    elimination_order:
        Edge keys in the order their "ears" were removed (only meaningful for
        the removed edges).
    remaining_edges:
        Edge keys that could not be removed; empty iff acyclic.
    parent:
        For each removed edge, the edge key of the witness it was absorbed
        into (None for the last remaining edge); together these parent links
        form a join tree when the hypergraph is acyclic.
    """

    acyclic: bool
    elimination_order: list[str] = field(default_factory=list)
    remaining_edges: list[str] = field(default_factory=list)
    parent: dict[str, str | None] = field(default_factory=dict)


def gyo_reduction(hypergraph: Hypergraph) -> GYOResult:
    """Run the GYO ear-removal procedure.

    An edge F is an *ear* if there is another edge F' such that every vertex
    of F is either exclusive to F (appears in no other remaining edge) or
    also belongs to F'.  Ears are removed repeatedly; the hypergraph is
    alpha-acyclic iff all edges can be removed (equivalently, at most one
    edge remains).
    """
    edges = dict(hypergraph.edges)
    result = GYOResult(acyclic=False)

    def vertex_occurrences() -> dict[str, int]:
        occ: dict[str, int] = {}
        for members in edges.values():
            for v in members:
                occ[v] = occ.get(v, 0) + 1
        return occ

    changed = True
    while changed and len(edges) > 1:
        changed = False
        occ = vertex_occurrences()
        for key in list(edges.keys()):
            members = edges[key]
            exclusive = {v for v in members if occ[v] == 1}
            shared = members - exclusive
            witness = None
            if not shared:
                # All vertices exclusive: the edge is an isolated ear.
                witness_candidates = [k for k in edges if k != key]
                witness = witness_candidates[0] if witness_candidates else None
            else:
                for other_key, other_members in edges.items():
                    if other_key == key:
                        continue
                    if shared <= other_members:
                        witness = other_key
                        break
                if witness is None:
                    continue
            result.elimination_order.append(key)
            result.parent[key] = witness
            del edges[key]
            changed = True
            break

    result.remaining_edges = list(edges.keys())
    if len(edges) <= 1:
        result.acyclic = True
        if edges:
            last = next(iter(edges.keys()))
            result.elimination_order.append(last)
            result.parent[last] = None
    return result


def is_alpha_acyclic(hypergraph: Hypergraph) -> bool:
    """True iff the hypergraph is alpha-acyclic (GYO reduces it fully)."""
    return gyo_reduction(hypergraph).acyclic
