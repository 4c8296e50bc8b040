"""Classical relational algebra operators over :class:`Relation`.

These are the "one pair at a time" building blocks that traditional query
plans (and the binary-plan baselines in :mod:`repro.joins.binary_plans`) are
made of: selection, projection, renaming, natural join (hash join),
semijoin, union, difference and cartesian product.

Every operator optionally reports work done to an
:class:`repro.joins.instrumentation.OperationCounter`, so that the benchmark
harness can compare operation counts of traditional plans against WCOJ
algorithms on equal footing.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence, TYPE_CHECKING

from repro.errors import SchemaError
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


def natural_join(left: Relation, right: Relation, name: str | None = None,
                 counter: "OperationCounter | None" = None) -> Relation:
    """Natural join via the classic build/probe hash join.

    The smaller relation is used as the build side.  Joins on the common
    attributes of the two schemas; a join with no common attributes
    degenerates to the cartesian product.
    """
    common = left.schema.intersection(right.schema)
    if not common:
        return cartesian_product(left, right, name=name, counter=counter)

    build, probe = (left, right) if len(left) <= len(right) else (right, left)
    build_pos = build.schema.positions(common)
    probe_pos = probe.schema.positions(common)

    table: dict[tuple, list[tuple]] = {}
    for t in build:
        table.setdefault(tuple(t[p] for p in build_pos), []).append(t)
    _charge(counter, tuples_scanned=len(build), hash_inserts=len(build))

    out_schema = left.schema.union(right.schema)
    # Positions used to assemble the output tuple from (left tuple, right tuple).
    assembly: list[tuple[int, int]] = []
    for attr in out_schema:
        if attr in left.schema:
            assembly.append((0, left.schema.position(attr)))
        else:
            assembly.append((1, right.schema.position(attr)))

    result: set[tuple] = set()
    for t in probe:
        _charge(counter, tuples_scanned=1, hash_probes=1)
        key = tuple(t[p] for p in probe_pos)
        matches = table.get(key)
        if not matches:
            continue
        for m in matches:
            if build is left:
                pair = (m, t)
            else:
                pair = (t, m)
            out = tuple(pair[side][pos] for side, pos in assembly)
            result.add(out)
            _charge(counter, tuples_emitted=1)
    join_name = name or f"({left.name} JOIN {right.name})"
    return Relation(join_name, out_schema, result)


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


def cartesian_product(left: Relation, right: Relation, name: str | None = None,
                      counter: "OperationCounter | None" = None) -> Relation:
    """Cartesian product; schemas must be disjoint."""
    common = left.schema.intersection(right.schema)
    if common:
        raise SchemaError(
            f"cartesian product requires disjoint schemas, both contain {common}"
        )
    out_schema = left.schema.union(right.schema)
    result = set()
    for lt in left:
        for rt in right:
            result.add(lt + rt)
            _charge(counter, tuples_emitted=1)
    _charge(counter, tuples_scanned=len(left) + len(right))
    return Relation(name or f"({left.name} X {right.name})", out_schema, result)


def intersect_value_sets(sets: Sequence[Iterable[Value]],
                         counter: "OperationCounter | None" = None) -> set[Value]:
    """Intersect several value collections, iterating the smallest one."""
    materialized = [s if isinstance(s, (set, frozenset)) else set(s) for s in sets]
    if not materialized:
        return set()
    materialized.sort(key=len)
    smallest = materialized[0]
    others = materialized[1:]
    _charge(counter, intersection_steps=len(smallest))
    return {v for v in smallest if all(v in o for o in others)}
