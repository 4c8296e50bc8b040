"""Loomis–Whitney query instances LW(k).

LW(k) has k variables and k atoms, each atom containing all but one
variable; its fractional edge cover number is k / (k - 1), so with every
relation of size N the AGM bound is N^{k/(k-1)}.  These are the queries for
which Ngo et al. proved every join-project plan is worse than the WCOJ
algorithm by a factor of Omega(N^{1 - 1/k}) (Section 1.2).
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.query.atoms import ConjunctiveQuery, loomis_whitney_query
from repro.relational.database import Database
from repro.relational.relation import Relation


def loomis_whitney_agm_tight_instance(k: int, n: int
                                      ) -> tuple[ConjunctiveQuery, Database]:
    """The AGM-tight LW(k) instance with every relation of size ~ n.

    The domain of every variable has size m = floor(n^{1/(k-1)}); each atom's
    relation is the full cross product of its k-1 domains (size m^{k-1} ~ n),
    and the output is the full cube of size m^k ~ n^{k/(k-1)}.
    """
    query = loomis_whitney_query(k)
    m = max(1, int(round(n ** (1.0 / (k - 1)))))
    relations = []
    for atom in query.atoms:
        arity = len(atom.variables)
        tuples = _cartesian_power(range(m), arity)
        relations.append(Relation(atom.relation, atom.variables, tuples))
    return query, Database(relations)


def _cartesian_power(values: Iterable[int], arity: int) -> list[tuple]:
    values = list(values)
    tuples: list[tuple] = [()]
    for _ in range(arity):
        tuples = [t + (v,) for t in tuples for v in values]
    return tuples


def loomis_whitney_random_instance(k: int, n: int, domain_size: int | None = None,
                                   seed: int = 0
                                   ) -> tuple[ConjunctiveQuery, Database]:
    """A random LW(k) instance: each relation is n tuples sampled uniformly
    from a domain of the given size (default ~ n^{1/(k-1)} * 2 so relations
    are sparse but joins are non-trivial)."""
    query = loomis_whitney_query(k)
    if domain_size is None:
        domain_size = max(2, int(round(2 * n ** (1.0 / (k - 1)))))
    rng = random.Random(seed)
    relations = []
    for atom in query.atoms:
        arity = len(atom.variables)
        tuples: set[tuple] = set()
        possible = domain_size ** arity
        target = min(n, possible)
        while len(tuples) < target:
            tuples.add(tuple(rng.randrange(domain_size) for _ in range(arity)))
        relations.append(Relation(atom.relation, atom.variables, tuples))
    return query, Database(relations)


def loomis_whitney_bound_exponent(k: int) -> float:
    """rho*(LW(k)) = k / (k - 1)."""
    return k / (k - 1.0)


def loomis_whitney_plan_gap_exponent(k: int) -> float:
    """The paper's separation exponent: any join-project plan is worse than
    the WCOJ runtime by a factor Omega(N^{1 - 1/k})."""
    return 1.0 - 1.0 / k


def loomis_whitney_skew_instance(k: int, n: int) -> tuple[ConjunctiveQuery, Database]:
    """A skewed LW(k) instance generalizing the star triangle instance.

    Each relation is a union of (k-1) axis-aligned "beams" through the
    all-zero point: for each of its attributes, the tuples that are zero
    everywhere except possibly that attribute.  Relations have ~ (k-1) * m
    tuples, the output is O(k * m), but pairwise joins blow up to ~ m^2.
    """
    query = loomis_whitney_query(k)
    m = max(1, n // max(1, (k - 1)))
    relations = []
    for atom in query.atoms:
        arity = len(atom.variables)
        tuples: set[tuple] = set()
        tuples.add(tuple(0 for _ in range(arity)))
        for axis in range(arity):
            for value in range(1, m + 1):
                tup = [0] * arity
                tup[axis] = value
                tuples.add(tuple(tup))
        relations.append(Relation(atom.relation, atom.variables, tuples))
    return query, Database(relations)
