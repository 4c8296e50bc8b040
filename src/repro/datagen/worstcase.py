"""AGM-tight and skew-hard instances for the canonical cyclic queries.

Two instance families drive the paper's story for the triangle query:

* the *AGM-tight* ("lens") instances — three complete bipartite relations
  over domains of size sqrt(N) — on which the output actually reaches the
  AGM bound N^{3/2} (this is the Atserias et al. tightness construction);
* the *skew* instances — star-shaped relations with one high-degree value —
  on which the output is only O(N) but every pairwise join materializes an
  Omega(N^2) intermediate, the separation that motivates WCOJ algorithms.

The same constructions generalize to k-cliques, k-cycles and Loomis–Whitney
queries (the latter live in :mod:`repro.datagen.loomis_whitney`).
"""

from __future__ import annotations

import math

from repro.query.atoms import ConjunctiveQuery, clique_query, cycle_query, triangle_query
from repro.relational.database import Database
from repro.relational.relation import Relation


def triangle_agm_tight_instance(n: int) -> tuple[ConjunctiveQuery, Database]:
    """The AGM-tight triangle instance with |R| = |S| = |T| ~ n.

    Domains of size m = floor(sqrt(n)); each relation is the complete
    bipartite relation [m] x [m], so the output has m^3 ~ n^{3/2} triangles,
    matching the AGM bound sqrt(|R| |S| |T|).
    """
    m = max(1, int(math.isqrt(n)))
    pairs = [(i, j) for i in range(m) for j in range(m)]
    r = Relation("R", ("A", "B"), pairs)
    s = Relation("S", ("B", "C"), pairs)
    t = Relation("T", ("A", "C"), pairs)
    return triangle_query(), Database([r, s, t])


def triangle_skew_instance(n: int) -> tuple[ConjunctiveQuery, Database]:
    """The skew ("star") triangle instance of size ~n per relation.

    Each relation is the union of two stars centered at value 0, e.g.
    R = {(i, 0)} ∪ {(0, j)} for i, j in [m] with m = n // 2.  The output has
    only O(n) triangles, yet R JOIN S (and every other pairwise join)
    contains Omega(n^2 / 4) tuples — the instance from the "skew strikes
    back" discussion that separates WCOJ algorithms from every pairwise plan.
    """
    m = max(1, n // 2)
    star_pairs = [(i, 0) for i in range(1, m + 1)] + [(0, j) for j in range(1, m + 1)]
    star_pairs.append((0, 0))
    r = Relation("R", ("A", "B"), star_pairs)
    s = Relation("S", ("B", "C"), star_pairs)
    t = Relation("T", ("A", "C"), star_pairs)
    return triangle_query(), Database([r, s, t])


def clique_agm_tight_instance(k: int, n: int) -> tuple[ConjunctiveQuery, Database]:
    """The AGM-tight k-clique instance: every pair relation is the complete
    relation over domains of size floor(sqrt(n)), giving output ~ n^{k/2}."""
    query = clique_query(k)
    m = max(1, int(math.isqrt(n)))
    pairs = [(i, j) for i in range(m) for j in range(m)]
    relations = []
    for atom in query.atoms:
        relations.append(Relation(atom.relation, ("A", "B"), pairs))
    return query, Database(relations)


def cycle_agm_tight_instance(k: int, n: int) -> tuple[ConjunctiveQuery, Database]:
    """The AGM-tight k-cycle instance (complete relations over sqrt(n)-sized
    domains); rho* = k/2 so the output is ~ n^{k/2}."""
    query = cycle_query(k)
    m = max(1, int(math.isqrt(n)))
    pairs = [(i, j) for i in range(m) for j in range(m)]
    relations = []
    for atom in query.atoms:
        relations.append(Relation(atom.relation, ("A", "B"), pairs))
    return query, Database(relations)


def triangle_from_graph(edges: Relation) -> tuple[ConjunctiveQuery, Database]:
    """Triangle counting on a single (directed) graph: R = S = T = edges.

    This is the R = S = T = E setting the paper highlights for social-network
    analysis; the same edge relation is bound to all three atoms.
    """
    r = edges.with_name("R")
    s = Relation("S", ("B", "C"), edges.tuples)
    t = Relation("T", ("A", "C"), edges.tuples)
    return triangle_query(), Database([r, s, t])
