"""Random relations under cardinality and degree constraints.

These generators feed the degree-constraint experiments (Algorithm 3, PANDA,
the bound-tightness checks): they produce relations that *provably* satisfy a
requested maximum degree, so constraint sets built from the generator
parameters are guaranteed to validate.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.relational.relation import Relation


def random_relation(name: str, attributes: Sequence[str], num_tuples: int,
                    domain_size: int, seed: int = 0) -> Relation:
    """A relation of ``num_tuples`` distinct tuples drawn uniformly from
    ``[domain_size]^arity``."""
    rng = random.Random(seed)
    arity = len(attributes)
    possible = domain_size ** arity
    target = min(num_tuples, possible)
    tuples: set[tuple] = set()
    while len(tuples) < target:
        tuples.add(tuple(rng.randrange(domain_size) for _ in range(arity)))
    return Relation(name, attributes, tuples)


def relation_with_degree_bound(name: str, attributes: Sequence[str],
                               key: Sequence[str], max_degree: int,
                               num_keys: int, domain_size: int,
                               seed: int = 0) -> Relation:
    """A relation in which every ``key``-value has at most ``max_degree``
    distinct extensions on the remaining attributes.

    ``num_keys`` distinct key values are generated; each receives between 1
    and ``max_degree`` extensions.  The result therefore guards the degree
    constraint (key, attributes, max_degree) by construction.
    """
    rng = random.Random(seed)
    key = tuple(key)
    rest = tuple(a for a in attributes if a not in key)
    key_positions = {a: i for i, a in enumerate(attributes)}
    tuples: set[tuple] = set()
    seen_keys: set[tuple] = set()
    while len(seen_keys) < num_keys:
        key_value = tuple(rng.randrange(domain_size) for _ in key)
        if key_value in seen_keys:
            continue
        seen_keys.add(key_value)
        extensions = rng.randint(1, max_degree)
        chosen: set[tuple] = set()
        attempts = 0
        while len(chosen) < extensions and attempts < 20 * extensions + 10:
            chosen.add(tuple(rng.randrange(domain_size) for _ in rest))
            attempts += 1
        for ext in chosen:
            row = [None] * len(attributes)
            for i, a in enumerate(key):
                row[key_positions[a]] = key_value[i]
            for i, a in enumerate(rest):
                row[key_positions[a]] = ext[i]
            tuples.add(tuple(row))
    return Relation(name, attributes, tuples)
