"""Statistics extraction: cardinalities and degrees.

Degree constraints (Definition 1 in the paper) are statements about

    deg_F(A_Y | A_X) = max_t |pi_{A_Y} sigma_{A_X = t}(R_F)|,

the maximum number of distinct Y-bindings per X-binding in a relation R_F.
This module computes these statistics directly from data so that constraint
sets can be *derived from* instances as well as validated against them.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import repeat
from operator import itemgetter, mul
from typing import Callable, Iterable, Sequence

from repro.errors import SchemaError
from repro.relational.database import Database
from repro.relational.relation import Relation


def cardinality(relation: Relation) -> int:
    """Number of tuples in the relation (|R|)."""
    return len(relation)


def degree(relation: Relation, x_attrs: Sequence[str], y_attrs: Sequence[str]) -> int:
    """Compute ``deg_R(A_Y | A_X)``: the max number of distinct Y-projections
    per X-binding.

    ``x_attrs`` may be empty, in which case the degree is simply the number
    of distinct Y-projections (a cardinality-style statistic).  ``y_attrs``
    must be non-empty and every named attribute must exist in the relation.
    An empty relation has degree 0.
    """
    x_attrs = tuple(x_attrs)
    y_attrs = tuple(y_attrs)
    if not y_attrs:
        raise SchemaError("degree requires at least one Y attribute")
    for attr in (*x_attrs, *y_attrs):
        if attr not in relation.schema:
            raise SchemaError(
                f"attribute {attr!r} not in relation {relation.name!r}"
            )
    if len(relation) == 0:
        return 0
    x_pos = relation.schema.positions(x_attrs)
    y_pos = relation.schema.positions(y_attrs)
    groups: dict[tuple, set[tuple]] = {}
    for t in relation:
        x_val = tuple(t[p] for p in x_pos)
        y_val = tuple(t[p] for p in y_pos)
        groups.setdefault(x_val, set()).add(y_val)
    return max(len(v) for v in groups.values())


def max_degree(relation: Relation, attribute: str) -> int:
    """Maximum number of tuples sharing a single value of ``attribute``.

    For an edge relation E(A, B) this is the maximum out-degree when
    ``attribute == "A"`` and the maximum in-degree when ``attribute == "B"``.
    """
    pos = relation.schema.position(attribute)
    counts: dict[object, int] = {}
    for t in relation:
        counts[t[pos]] = counts.get(t[pos], 0) + 1
    return max(counts.values()) if counts else 0


class DegreeCatalog:
    """The degree maps of one relation: every statistic the planner reads.

    ``degree_map(x, y)`` maps each X-binding to the number of distinct
    Y-projections it has (``y`` defaults to all other attributes, i.e. the
    tuple count).  Max degree, distinct count and ``deg(Y | X)`` are reads
    of a map; the size of a join on shared attributes is the dot product
    of two (:func:`join_size`).  Each map is built lazily in one pass and
    kept, so the catalog is only valid for the relation it was built on —
    :class:`repro.engine.registry.IndexRegistry` owns one per version.
    """

    def __init__(self, relation: Relation):
        self.relation = relation
        self.cardinality = len(relation)
        self._maps: dict[tuple, dict] = {}

    def degree_map(self, x_attrs: Sequence[str],
                   y_attrs: Sequence[str] | None = None) -> dict:
        """X-binding -> distinct Y count.  A binding is the bare value
        for one attribute, the tuple in ``x_attrs`` order for several,
        ``()`` for none."""
        x = tuple(x_attrs)
        rest = tuple(a for a in self.relation.attributes if a not in x)
        y = rest if y_attrs is None else tuple(
            a for a in rest if a in y_attrs)
        cached = self._maps.get((x, y))
        if cached is None:
            if not x:
                cached = {(): self.distinct(y)}
            elif not y:  # nothing to count: one per distinct binding
                cached = dict.fromkeys(
                    self.relation.tuples if not rest else self.degree_map(x),
                    1)
            else:
                rows: Iterable[tuple] = self.relation.tuples
                pick = itemgetter(*self.relation.schema.positions(x))
                if y != rest:  # partial Y: distinct (X, Y) projections
                    rows = set(map(itemgetter(
                        *self.relation.schema.positions(x + y)), rows))
                    pick = itemgetter(*range(len(x)))
                cached = dict(Counter(map(pick, rows)))
            self._maps[(x, y)] = cached
        return cached

    def max_degree(self, x_attrs: Sequence[str],
                   y_attrs: Sequence[str] | None = None) -> int:
        """``deg(Y | X)``; with the default Y, the most tuples sharing one
        X-binding.  0 on an empty relation."""
        return max(self.degree_map(x_attrs, y_attrs).values(), default=0)

    def distinct(self, x_attrs: Sequence[str]) -> int:
        """Number of distinct X-bindings."""
        if len(x_attrs) == len(self.relation.attributes):
            return self.cardinality
        return len(self.degree_map(x_attrs)) if x_attrs else 1


def catalog_lookup(database: Database) -> Callable[[str], DegreeCatalog]:
    """Relation name -> its catalog, built on first use: a throw-away
    catalog set for one planning call that has no registry to ask."""
    return functools.cache(lambda name: DegreeCatalog(database.get(name)))


def join_size(left: dict, right: dict) -> int:
    """The dot product of two degree maps keyed on the same attributes:
    with tuple-count maps, the exact size of the two relations' join on
    them."""
    if len(right) < len(left):
        left, right = right, left
    return sum(map(mul, left.values(), map(right.get, left, repeat(0))))


def size_bucket(n: int) -> int:
    """Bucket a cardinality by order of magnitude (``n.bit_length()``).

    Two relation sizes in the same power-of-two bucket are treated as
    equivalent by the plan cache: a plan chosen for one is reused for the
    other, so small inserts do not evict otherwise-identical plans while any
    order-of-magnitude shift forces a fresh optimization.
    """
    if n < 0:
        raise SchemaError(f"cardinality cannot be negative, got {n}")
    return int(n).bit_length()


def statistics_fingerprint(database: Database, relation_names: Sequence[str]
                           ) -> tuple[int, ...]:
    """A coarse statistics fingerprint: bucketed sizes of the named relations.

    The fingerprint is positional — callers pass relation names in a
    canonical atom order so that isomorphic queries over the same data
    produce identical fingerprints (and hence share plan-cache entries).
    """
    return tuple(size_bucket(len(database.get(name))) for name in relation_names)
