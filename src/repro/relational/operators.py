"""Classical relational algebra operators over :class:`Relation`.

These are the "one pair at a time" building blocks that traditional query
plans (and the binary-plan baselines in :mod:`repro.joins.binary_plans`) are
made of: selection, projection, renaming, natural join (hash join),
semijoin, union and difference.

Every operator optionally reports work done to an
:class:`repro.joins.instrumentation.OperationCounter`, so that the benchmark
harness can compare operation counts of traditional plans against WCOJ
algorithms on equal footing.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (Any, Callable, Collection, Iterator, Mapping, Sequence,
                    TYPE_CHECKING)

from repro.relational.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.joins.instrumentation import OperationCounter

Value = Any


def _charge(counter: "OperationCounter | None", **kwargs: int) -> None:
    if counter is not None:
        counter.charge(**kwargs)


def select(relation: Relation, bindings: Mapping[str, Value],
           counter: "OperationCounter | None" = None) -> Relation:
    """Selection sigma_{bindings}(relation); scans every tuple once."""
    _charge(counter, tuples_scanned=len(relation))
    return relation.select(bindings)


def project(relation: Relation, attributes: Sequence[str],
            counter: "OperationCounter | None" = None) -> Relation:
    """Projection pi_{attributes}(relation) with duplicate elimination."""
    _charge(counter, tuples_scanned=len(relation))
    result = relation.project(attributes)
    _charge(counter, tuples_emitted=len(result))
    return result


def rename(relation: Relation, mapping: Mapping[str, str]) -> Relation:
    """Rename attributes (old name -> new name); free of data movement."""
    return relation.rename(mapping)


def row_picker(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """A function taking a row to the tuple of its values at ``positions``."""
    if len(positions) == 1:
        (position,) = positions
        return lambda row: (row[position],)
    return itemgetter(*positions) if positions else lambda row: ()


def join_rows(left_schema: tuple[str, ...], left: Collection[tuple],
              right_schema: tuple[str, ...], right: Collection[tuple],
              schema: Sequence[str],
              counter: "OperationCounter | None" = None) -> Iterator[tuple]:
    """Hash-join two row collections on their common attributes, building
    on the smaller side, and yield each output row over ``schema``.

    With no common attribute this is the cartesian product, charged as
    such: no hash inserts or probes.  Duplicate-free inputs give a
    duplicate-free output, so nothing is deduplicated.
    """
    if len(left) > len(right):  # from here on, ``left`` is the build side
        left_schema, left, right_schema, right = (right_schema, right,
                                                  left_schema, left)
    # Output positions within the concatenated row ``left row + right row``.
    both = left_schema + right_schema
    assemble = row_picker([both.index(a) for a in schema])
    common = [a for a in left_schema if a in right_schema]
    build_key = row_picker([left_schema.index(a) for a in common])
    probe_key = row_picker([right_schema.index(a) for a in common])
    hashed = 1 if common else 0  # a cartesian product is one bucket
    table: dict[tuple, list[tuple]] = {}
    for t in left:
        table.setdefault(build_key(t), []).append(t)
    _charge(counter, tuples_scanned=len(left), hash_inserts=hashed * len(left))
    lookup = table.get
    for t in right:
        _charge(counter, tuples_scanned=1, hash_probes=hashed)
        for m in lookup(probe_key(t), ()):
            _charge(counter, tuples_emitted=1)
            yield assemble(m + t)


def natural_join(left: Relation, right: Relation, name: str | None = None,
                 counter: "OperationCounter | None" = None) -> Relation:
    """Natural join via :func:`join_rows`' build/probe hash join; with no
    common attributes, the cartesian product."""
    schema = left.schema.union(right.schema)
    join = "JOIN" if left.schema.intersection(right.schema) else "X"
    return Relation(name or f"({left.name} {join} {right.name})", schema,
                    join_rows(left.attributes, left.tuples, right.attributes,
                              right.tuples, schema, counter))


def semijoin(left: Relation, right: Relation, name: str | None = None,
             counter: "OperationCounter | None" = None) -> Relation:
    """Left semijoin: tuples of ``left`` that join with at least one tuple of
    ``right`` on their common attributes."""
    common = left.schema.intersection(right.schema)
    if not common:
        # With no common attributes, the semijoin keeps everything unless the
        # right side is empty.
        return left if len(right) else left.with_tuples(())
    right_keys = right.columns(common)
    _charge(counter, tuples_scanned=len(right), hash_inserts=len(right))
    left_pos = left.schema.positions(common)
    kept = set()
    for t in left:
        _charge(counter, tuples_scanned=1, hash_probes=1)
        if tuple(t[p] for p in left_pos) in right_keys:
            kept.add(t)
            _charge(counter, tuples_emitted=1)
    return Relation(name or left.name, left.schema, kept)


def union(left: Relation, right: Relation, name: str | None = None,
          counter: "OperationCounter | None" = None) -> Relation:
    """Set union of two relations with identical schemas."""
    _charge(counter, tuples_scanned=len(left) + len(right))
    return left.union(right, name=name)


def difference(left: Relation, right: Relation, name: str | None = None,
               counter: "OperationCounter | None" = None) -> Relation:
    """Set difference ``left - right`` of relations with identical schemas."""
    _charge(counter, tuples_scanned=len(left) + len(right))
    return left.difference(right, name=name)
