"""The :class:`Relation` class: a named set of tuples over a schema.

Relations follow set semantics (no duplicate tuples), as in the paper's
conjunctive-query setting.  A relation is immutable once constructed; all
operations return new relations.  Tuples are plain Python tuples whose i-th
component is the value of the i-th schema attribute.  A relation built by
:meth:`Relation.ordered` also remembers an iteration order — an engine
result iterates in the order its stream delivered the rows — while
equality, hashing, ``len`` and ``in`` stay set-based.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.relational.schema import Schema, as_schema

Tuple_ = tuple
Value = Any


class Relation:
    """An immutable relation: a schema plus a frozen set of tuples.

    Parameters
    ----------
    name:
        Relation name (used in query atoms and error messages).
    schema:
        A :class:`Schema` or sequence of attribute names.
    tuples:
        Iterable of tuples; each must have the same arity as the schema.
        Duplicates are silently removed (set semantics).

    Examples
    --------
    >>> R = Relation("R", ["A", "B"], [(1, 2), (1, 3), (2, 3)])
    >>> len(R)
    3
    >>> sorted(R.column("A"))
    [1, 2]
    """

    # ``_rows`` is what iteration yields: the tuple set itself, or (see
    # :meth:`ordered`) the same rows as a tuple in a remembered order.
    __slots__ = ("_name", "_schema", "_tuples", "_rows")

    def __init__(
        self,
        name: str,
        schema: Schema | Sequence[str],
        tuples: Iterable[Sequence[Value]] = (),
    ):
        self._name = name
        self._schema = as_schema(schema)
        arity = self._schema.arity
        frozen = set()
        for t in tuples:
            tup = tuple(t)
            if len(tup) != arity:
                raise SchemaError(
                    f"tuple {tup!r} has arity {len(tup)}, expected {arity} "
                    f"for schema {self._schema.attributes}"
                )
            frozen.add(tup)
        self._tuples = self._rows = frozenset(frozen)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The relation name."""
        return self._name

    @property
    def schema(self) -> Schema:
        """The relation schema."""
        return self._schema

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attribute names, in schema order."""
        return self._schema.attributes

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return self._schema.arity

    @property
    def tuples(self) -> frozenset[Tuple_]:
        """The underlying frozen set of tuples."""
        return self._tuples

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[Tuple_]:
        return iter(self._rows)

    def __contains__(self, item: object) -> bool:
        return tuple(item) in self._tuples if isinstance(item, (tuple, list)) else False

    def __eq__(self, other: object) -> bool:
        """Two relations are equal if they have the same schema and tuples.

        The relation *name* does not participate in equality: it is metadata.
        """
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema == other._schema and self._tuples == other._tuples

    def __hash__(self) -> int:
        return hash((self._schema, self._tuples))

    def __repr__(self) -> str:
        return (
            f"Relation({self._name!r}, {list(self._schema.attributes)!r}, "
            f"{len(self._tuples)} tuples)"
        )

    def is_empty(self) -> bool:
        """True when the relation has no tuples."""
        return not self._tuples

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, name: str, edges: Iterable[tuple[Value, Value]],
                   attributes: Sequence[str] = ("A", "B")) -> "Relation":
        """Build a binary relation from an iterable of (source, target) pairs."""
        return cls(name, attributes, edges)

    @classmethod
    def empty(cls, name: str, schema: Schema | Sequence[str]) -> "Relation":
        """Build an empty relation with the given schema."""
        return cls(name, schema, ())

    @classmethod
    def ordered(cls, name: str, schema: Schema | Sequence[str],
                rows: Sequence[Tuple_]) -> "Relation":
        """Build a relation that iterates ``rows`` in the given order.

        A repeated row keeps its first place, so iteration yields exactly
        ``len`` rows.  Only iteration sees the order: equality, hashing
        and :attr:`tuples` are those of the plain relation.
        """
        relation = cls(name, schema, rows)
        if len(relation._tuples) != len(rows):
            rows = list(dict.fromkeys(rows))
        relation._rows = tuple(rows)
        return relation

    def with_name(self, name: str) -> "Relation":
        """Return the same relation under a different name."""
        new = Relation.__new__(Relation)
        new._name = name
        new._schema = self._schema
        new._tuples = self._tuples
        new._rows = self._rows
        return new

    def with_tuples(self, tuples: Iterable[Sequence[Value]]) -> "Relation":
        """Return a relation with the same name and schema but new tuples."""
        return Relation(self._name, self._schema, tuples)

    # ------------------------------------------------------------------
    # Column / value access
    # ------------------------------------------------------------------
    def column(self, attribute: str) -> set[Value]:
        """The set of distinct values of ``attribute``."""
        pos = self._schema.position(attribute)
        return {t[pos] for t in self._tuples}

    def columns(self, attributes: Sequence[str]) -> set[Tuple_]:
        """The set of distinct value combinations of ``attributes``."""
        positions = self._schema.positions(attributes)
        return {tuple(t[p] for p in positions) for t in self._tuples}

    def active_domain(self) -> set[Value]:
        """All values appearing anywhere in the relation."""
        domain: set[Value] = set()
        for t in self._tuples:
            domain.update(t)
        return domain

    def tuple_as_dict(self, tup: Sequence[Value]) -> dict[str, Value]:
        """Convert a positional tuple into an attribute->value mapping."""
        return dict(zip(self._schema.attributes, tup))

    # ------------------------------------------------------------------
    # Core relational operations (also exposed functionally in operators.py)
    # ------------------------------------------------------------------
    def project(self, attributes: Sequence[str], name: str | None = None) -> "Relation":
        """Project onto ``attributes`` (duplicates eliminated)."""
        positions = self._schema.positions(attributes)
        tuples = {tuple(t[p] for p in positions) for t in self._tuples}
        return Relation(name or self._name, attributes, tuples)

    def select(self, bindings: Mapping[str, Value], name: str | None = None) -> "Relation":
        """Select tuples whose values agree with ``bindings`` (attr -> value)."""
        items = [(self._schema.position(a), v) for a, v in bindings.items()]
        tuples = (
            t for t in self._tuples if all(t[p] == v for p, v in items)
        )
        return Relation(name or self._name, self._schema, tuples)

    def filter(self, predicate: Callable[[dict[str, Value]], bool],
               name: str | None = None) -> "Relation":
        """Select tuples for which ``predicate(attribute_dict)`` is true."""
        attrs = self._schema.attributes
        tuples = (
            t for t in self._tuples if predicate(dict(zip(attrs, t)))
        )
        return Relation(name or self._name, self._schema, tuples)

    def rename(self, mapping: Mapping[str, str], name: str | None = None) -> "Relation":
        """Rename attributes according to ``mapping`` (old -> new)."""
        new_schema = self._schema.rename(dict(mapping))
        new = Relation.__new__(Relation)
        new._name = name or self._name
        new._schema = new_schema
        new._tuples = self._tuples
        new._rows = self._rows
        return new

    def reorder(self, attributes: Sequence[str], name: str | None = None) -> "Relation":
        """Reorder columns so the schema becomes exactly ``attributes``.

        ``attributes`` must be a permutation of the current schema.
        """
        if set(attributes) != set(self._schema.attributes) or len(attributes) != self.arity:
            raise SchemaError(
                f"{attributes!r} is not a permutation of {self._schema.attributes!r}"
            )
        positions = self._schema.positions(attributes)
        tuples = {tuple(t[p] for p in positions) for t in self._tuples}
        return Relation(name or self._name, attributes, tuples)

    def distinct_values(self, attribute: str, where: Mapping[str, Value] | None = None
                        ) -> set[Value]:
        """Distinct values of ``attribute`` among tuples matching ``where``."""
        if not where:
            return self.column(attribute)
        pos = self._schema.position(attribute)
        items = [(self._schema.position(a), v) for a, v in where.items()]
        return {
            t[pos]
            for t in self._tuples
            if all(t[p] == v for p, v in items)
        }

    def union(self, other: "Relation", name: str | None = None) -> "Relation":
        """Set union; schemas must list the same attributes in the same order."""
        if self._schema != other._schema:
            raise SchemaError(
                f"union requires identical schemas, got {self._schema} and {other._schema}"
            )
        new = Relation.__new__(Relation)
        new._name = name or self._name
        new._schema = self._schema
        new._tuples = new._rows = self._tuples | other._tuples
        return new

    def difference(self, other: "Relation", name: str | None = None) -> "Relation":
        """Set difference; schemas must match."""
        if self._schema != other._schema:
            raise SchemaError(
                f"difference requires identical schemas, got {self._schema} and {other._schema}"
            )
        new = Relation.__new__(Relation)
        new._name = name or self._name
        new._schema = self._schema
        new._tuples = new._rows = self._tuples - other._tuples
        return new

    def sorted_tuples(self) -> list[Tuple_]:
        """Tuples in lexicographic order (useful for deterministic output)."""
        return sorted(self._tuples)
