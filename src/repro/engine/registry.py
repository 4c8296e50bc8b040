"""The index registry: build indexes once, reuse them across queries.

Leapfrog Triejoin's practical speed comes from *persistent* trie storage —
the LogicBlox engine keeps every relation materialized as tries and never
rebuilds them per query.  The one-shot functions in :mod:`repro.joins`
instead rebuild every index on every call, which is exactly the overhead a
long-lived engine amortizes away.

The registry caches :class:`TrieIndex` / :class:`HashIndex` structures keyed
by ``(relation name, attribute layout)`` and validates every entry against
the :meth:`Database.version` of its relation, so a mutation (insert /
replace) transparently invalidates all derived indexes without the engine
having to enumerate them eagerly.

Indexes are built on the *stored* relations (original attribute names).  A
trie's shape depends only on the column permutation, not the column names,
so an atom ``R(A, B)`` over a stored relation ``R(X, Y)`` can share the
registry entry for layout ``(X, Y)`` with every other query that scans R in
that column order — including other atoms of the same query (self-joins).
"""

from __future__ import annotations

from typing import Sequence

from repro.relational.database import Database
from repro.relational.index import HashIndex, TrieIndex
from repro.relational.statistics import DegreeCatalog


class IndexRegistry:
    """A version-checked cache of per-relation index structures.

    Parameters
    ----------
    database:
        The catalog the indexes are built over.  The registry never mutates
        it; it only observes relation versions.
    """

    def __init__(self, database: Database):
        self._database = database
        self._tries: dict[tuple[str, tuple[str, ...]], tuple[int, TrieIndex]] = {}
        self._hashes: dict[tuple[str, tuple[str, ...]], tuple[int, HashIndex]] = {}
        self._statistics: dict[str, tuple[int, DegreeCatalog]] = {}
        self.builds = 0
        self.reuses = 0
        self.invalidations = 0
        # Columnar backend state: one shared dictionary store plus sorted
        # layouts keyed like tries but validated against *both* the
        # relation version and the store's dictionary epoch.
        self._columnar_store = None
        self._columnar: dict[tuple[str, tuple[str, ...]],
                             tuple[int, int, object]] = {}
        self._columnar_registered: dict[str, int] = {}
        self.layout_builds = 0
        self.layout_reuses = 0

    @property
    def database(self) -> Database:
        """The catalog this registry indexes."""
        return self._database

    def trie(self, relation_name: str, attr_order: Sequence[str]) -> TrieIndex:
        """A trie over ``relation_name`` with levels in ``attr_order``.

        Served from cache when the relation's version is unchanged; rebuilt
        (and re-cached) otherwise.
        """
        key = (relation_name, tuple(attr_order))
        version = self._database.version(relation_name)
        cached = self._tries.get(key)
        if cached is not None and cached[0] == version:
            self.reuses += 1
            return cached[1]
        index = TrieIndex(self._database.get(relation_name), key[1])
        self._tries[key] = (version, index)
        self.builds += 1
        return index

    def hash_index(self, relation_name: str, key_attrs: Sequence[str]) -> HashIndex:
        """A hash index over ``relation_name`` keyed by ``key_attrs``."""
        key = (relation_name, tuple(key_attrs))
        version = self._database.version(relation_name)
        cached = self._hashes.get(key)
        if cached is not None and cached[0] == version:
            self.reuses += 1
            return cached[1]
        index = HashIndex(self._database.get(relation_name), key[1])
        self._hashes[key] = (version, index)
        self.builds += 1
        return index

    def statistics(self, relation_name: str) -> DegreeCatalog:
        """The relation's degree catalog at its current version."""
        version = self._database.version(relation_name)
        cached = self._statistics.get(relation_name)
        if cached is None or cached[0] != version:
            cached = (version, DegreeCatalog(self._database.get(relation_name)))
            self._statistics[relation_name] = cached
        return cached[1]

    @property
    def columnar_store(self):
        """The shared dictionary store (created lazily: needs NumPy)."""
        if self._columnar_store is None:
            from repro.columnar.layout import ColumnarStore
            self._columnar_store = ColumnarStore()
        return self._columnar_store

    def columnar_layouts(self, requests: Sequence) -> dict:
        """Resolve sorted columnar layouts for a batch of index requests.

        ``requests`` are ``(edge_key, relation_name, attr_order)`` triples
        (the same shape the trie path uses); returns ``{edge_key:
        ColumnarLayout}``.  The whole batch is served under one dictionary
        epoch: relations whose versions moved since their values were
        registered are re-registered *first* (a single ``register`` call,
        so at most one epoch bump), then every layout is built or reused
        under the now-stable epoch — codes are comparable across every
        layout in the batch, and every layout of it sees the same store
        size, which its composite seek keys are built on.  Raises
        ``TypeError`` (store untouched) on un-orderable mixed value
        domains.
        """
        from repro.columnar.layout import build_layout
        store = self.columnar_store
        stale_names = sorted({
            name for _edge_key, name, _attrs in requests
            if self._columnar_registered.get(name)
            != self._database.version(name)
        })
        if stale_names:
            store.register(
                value
                for name in stale_names
                for row in self._database.get(name).tuples
                for value in row)
            for name in stale_names:
                self._columnar_registered[name] = self._database.version(name)
        resolved = {}
        for edge_key, name, attrs in requests:
            key = (name, tuple(attrs))
            version = self._database.version(name)
            cached = self._columnar.get(key)
            if (cached is not None and cached[0] == version
                    and cached[1] == store.epoch):
                self.layout_reuses += 1
                resolved[edge_key] = cached[2]
                continue
            layout = build_layout(self._database.get(name), key[1], store)
            self._columnar[key] = (version, store.epoch, layout)
            self.layout_builds += 1
            resolved[edge_key] = layout
        return resolved

    def columnar_is_warm(self, relation_name: str,
                         attr_order: Sequence[str]) -> bool:
        """True if a current-version, current-epoch layout is built."""
        store = self._columnar_store
        if store is None:
            return False
        cached = self._columnar.get((relation_name, tuple(attr_order)))
        return (cached is not None
                and cached[0] == self._database.version(relation_name)
                and cached[1] == store.epoch)

    def columnar_warm_count(self) -> int:
        """Valid columnar layouts (the layout-occupancy gauge's figure)."""
        store = self._columnar_store
        if store is None:
            return 0
        return sum(
            1 for key, (version, epoch, _) in self._columnar.items()
            if version == self._database.version(key[0])
            and epoch == store.epoch)

    def is_warm(self, relation_name: str, attr_order: Sequence[str]) -> bool:
        """True if a current-version trie for this layout is already built."""
        cached = self._tries.get((relation_name, tuple(attr_order)))
        return (cached is not None
                and cached[0] == self._database.version(relation_name))

    def invalidate(self, relation_name: str | None = None) -> int:
        """Drop cached indexes for one relation (or all) and return the count.

        Version checks already make stale entries unreachable; eager
        invalidation additionally frees their memory.
        """
        def stale(key: tuple[str, tuple[str, ...]]) -> bool:
            return relation_name is None or key[0] == relation_name

        dropped = 0
        for store in (self._tries, self._hashes, self._columnar):
            for key in [k for k in store if stale(k)]:
                del store[key]
                dropped += 1
        for name in [n for n in self._columnar_registered
                     if relation_name is None or n == relation_name]:
            # Re-register on next use so new values enter the dictionary.
            del self._columnar_registered[name]
        for name in [n for n in self._statistics
                     if relation_name in (None, n)]:
            del self._statistics[name]
        self.invalidations += dropped
        return dropped

    def warm_layouts(self) -> list[tuple[str, tuple[str, ...]]]:
        """The (relation, layout) keys of all currently valid trie entries."""
        return [key for key, (version, _) in self._tries.items()
                if version == self._database.version(key[0])]

    def warm_count(self) -> int:
        """How many cached indexes are valid for the current data versions.

        Unlike ``len()`` this excludes entries a version bump has made
        unreachable but eager invalidation has not yet dropped; it is the
        figure the metrics gauge reports.
        """
        return len(self.warm_layouts()) + sum(
            1 for key, (version, _) in self._hashes.items()
            if version == self._database.version(key[0])
        )

    def __len__(self) -> int:
        return len(self._tries) + len(self._hashes)
