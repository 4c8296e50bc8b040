"""Indexes over relations.

Two index families are provided, matching the two ways WCOJ engines satisfy
the paper's single algorithmic assumption ("we can loop through the
intersection of two sets X and Y in time O(min(|X|, |Y|))", Section 2):

* :class:`HashIndex` — a hash map from key-attribute values to the set of
  matching tuples: the lookup structure of the binary-join executors and
  of constant-bound scans.
* :class:`TrieIndex` — a trie over a fixed attribute order whose every
  :class:`TrieNode` carries its next-level values twice: ``sorted_keys``
  (a sorted list — what Leapfrog Triejoin seeks in, and what any
  intersection iterates) and ``children`` (a hash map keyed by the same
  values, in the same order — what hash-based Generic-Join probes).  The
  WCOJ recursion holds on to *nodes*: it iterates the smallest node's
  ``sorted_keys`` and tests membership in the other nodes' ``children``
  (:func:`repro.joins.generic_join.hash_probe_intersect`), which is the
  O(min) loop the assumption asks for with nothing rebuilt per search
  node, and it descends with one ``children`` lookup per level (a cursor
  per atom, owned by the stream — the index itself is immutable and
  shared).

A trie is built from the projected rows ``sorted()`` once and grouped
level by level, so children are inserted in sorted order
(``sorted_keys`` is the insertion order of ``children``), counts are
summed bottom-up, and the last level's children share one leaf node
instead of owning a node, a dict and a list per stored tuple.
"""

from __future__ import annotations

import bisect
from itertools import groupby
from operator import itemgetter
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import SchemaError
from repro.relational.relation import Relation

Value = Any


class HashIndex:
    """Hash index on a relation keyed by a subset of its attributes.

    Parameters
    ----------
    relation:
        The indexed relation.
    key:
        Attribute names forming the key.  May be empty, in which case the
        index has a single bucket containing every tuple.

    The index maps each distinct key-value combination to the frozenset of
    full tuples sharing it.
    """

    __slots__ = ("_relation", "_key", "_buckets")

    def __init__(self, relation: Relation, key: Sequence[str]):
        self._relation = relation
        self._key = tuple(key)
        positions = relation.schema.positions(self._key)
        buckets: dict[tuple, set] = {}
        for t in relation:
            k = tuple(t[p] for p in positions)
            buckets.setdefault(k, set()).add(t)
        self._buckets = {k: frozenset(v) for k, v in buckets.items()}

    @property
    def relation(self) -> Relation:
        """The indexed relation."""
        return self._relation

    @property
    def key(self) -> tuple[str, ...]:
        """The key attributes."""
        return self._key

    def lookup(self, key_values: Sequence[Value]) -> frozenset[tuple]:
        """All tuples whose key attributes equal ``key_values``."""
        return self._buckets.get(tuple(key_values), frozenset())

    def lookup_dict(self, bindings: Mapping[str, Value]) -> frozenset[tuple]:
        """Like :meth:`lookup`, but the key is given as attr -> value."""
        key_values = tuple(bindings[a] for a in self._key)
        return self._buckets.get(key_values, frozenset())

    def contains(self, key_values: Sequence[Value]) -> bool:
        """True if any tuple matches ``key_values``."""
        return tuple(key_values) in self._buckets

    def count(self, key_values: Sequence[Value]) -> int:
        """Number of tuples matching ``key_values``."""
        return len(self._buckets.get(tuple(key_values), ()))

    def keys(self) -> Iterable[tuple]:
        """All distinct key combinations present."""
        return self._buckets.keys()

    def max_bucket_size(self) -> int:
        """The largest number of tuples sharing a key (0 for empty index)."""
        if not self._buckets:
            return 0
        return max(len(v) for v in self._buckets.values())

    def __len__(self) -> int:
        return len(self._buckets)


class TrieNode:
    """A node of a :class:`TrieIndex`: its next-level values as a sorted
    list (``sorted_keys``) and as a hash map to the child nodes
    (``children``, same keys in the same order), plus the number of
    (projected) tuples below it.  Immutable once built."""

    __slots__ = ("children", "sorted_keys", "count")

    def __init__(self, children: dict[Value, "TrieNode"],
                 sorted_keys: list[Value], count: int) -> None:
        self.children = children
        self.sorted_keys = sorted_keys
        self.count = count

    def seek(self, lower_bound: Value) -> Value | None:
        """Least next-level value >= ``lower_bound`` (None when there is
        none): Leapfrog Triejoin's galloping primitive."""
        keys = self.sorted_keys
        i = bisect.bisect_left(keys, lower_bound)
        return keys[i] if i < len(keys) else None


#: The node below every last-level value that stands for one tuple.
_LEAF = TrieNode({}, [], 1)


def _build_node(rows: Iterable[tuple], level: int, last: int) -> TrieNode:
    """The node over ``rows``: sorted, agreeing on the columns before
    ``level``, consumed once (a :func:`itertools.groupby` run will do)."""
    if level == last:
        keys = [row[level] for row in rows]
        children = dict.fromkeys(keys, _LEAF)
        if len(children) == len(keys):
            return TrieNode(children, keys, len(keys))
        # Only a proper projection repeats rows (tests build them, nothing
        # under ``src/`` does): a repeated value's leaf carries how many.
        for key, run in groupby(keys):
            n = len(list(run))
            if n > 1:
                children[key] = TrieNode({}, [], n)
        return TrieNode(children, list(children), len(keys))
    children = {key: _build_node(run, level + 1, last)
                for key, run in groupby(rows, key=itemgetter(level))}
    return TrieNode(children, list(children),
                    sum(child.count for child in children.values()))


class TrieIndex:
    """Sorted trie over a relation in a fixed attribute order.

    The trie has one level per attribute of ``order``; a path from the root
    to depth k spells out a binding of the first k attributes, and the node
    reached stores the sorted list of values the (k+1)-st attribute takes
    among matching tuples.  This is the data layout used by Leapfrog Triejoin
    and by the backtracking-search algorithm (Algorithm 3).

    Parameters
    ----------
    relation:
        The relation to index.
    order:
        Attribute order for trie levels.  Must be a subset (usually all) of
        the relation's attributes; tuples are first projected onto ``order``.

    Attributes
    ----------
    root:
        The :class:`TrieNode` of the empty prefix, where the WCOJ
        recursion's cursors start.
    """

    __slots__ = ("_relation", "_order", "root")

    def __init__(self, relation: Relation, order: Sequence[str]):
        self._relation = relation
        self._order = tuple(order)
        for attr in self._order:
            if attr not in relation.schema:
                raise SchemaError(
                    f"attribute {attr!r} not in relation {relation.name!r} "
                    f"schema {relation.attributes}"
                )
        positions = relation.schema.positions(self._order)
        if not positions:
            self.root = TrieNode({}, [], len(relation))
            return
        if len(positions) == 1:
            rows = sorted([(t[positions[0]],) for t in relation])
        else:
            rows = sorted(map(itemgetter(*positions), relation))
        self.root = _build_node(rows, 0, len(positions) - 1)

    @property
    def relation(self) -> Relation:
        """The indexed relation."""
        return self._relation

    @property
    def order(self) -> tuple[str, ...]:
        """The attribute order of the trie levels."""
        return self._order

    def node(self, prefix: Sequence[Value] = ()) -> TrieNode | None:
        """The node reached by ``prefix`` (None when no tuple extends it)."""
        node = self.root
        for value in prefix:
            node = node.children.get(value)
            if node is None:
                return None
        return node

    def values(self, prefix: Sequence[Value] = ()) -> list[Value]:
        """Sorted distinct values at the level after ``prefix``.

        ``prefix`` binds the first ``len(prefix)`` attributes of the trie
        order; an unknown prefix yields an empty list.
        """
        node = self.node(prefix)
        if node is None:
            return []
        return node.sorted_keys

    def count(self, prefix: Sequence[Value] = ()) -> int:
        """Number of (projected) tuples extending ``prefix``."""
        node = self.node(prefix)
        return 0 if node is None else node.count

    def num_children(self, prefix: Sequence[Value] = ()) -> int:
        """Number of distinct next-level values under ``prefix``."""
        node = self.node(prefix)
        return 0 if node is None else len(node.sorted_keys)

    def contains_prefix(self, prefix: Sequence[Value]) -> bool:
        """True if some tuple extends ``prefix``."""
        return self.node(prefix) is not None

    def seek(self, prefix: Sequence[Value], lower_bound: Value) -> Value | None:
        """Least next-level value >= ``lower_bound`` under ``prefix``.

        This is the primitive Leapfrog Triejoin uses for galloping; returns
        ``None`` when no such value exists.
        """
        node = self.node(prefix)
        return None if node is None else node.seek(lower_bound)
