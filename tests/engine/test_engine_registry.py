"""Tests for the version-checked index registry."""

from repro.engine import Engine
from repro.engine.registry import IndexRegistry
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.statistics import DegreeCatalog


def make_database():
    return Database([
        Relation("R", ("A", "B"), [(1, 2), (2, 3), (3, 1)]),
        Relation("S", ("B", "C"), [(2, 3), (3, 1)]),
    ])


class TestTrieReuse:
    def test_same_layout_returns_same_object(self):
        registry = IndexRegistry(make_database())
        first = registry.trie("R", ("A", "B"))
        second = registry.trie("R", ("A", "B"))
        assert first is second
        assert registry.builds == 1
        assert registry.reuses == 1

    def test_different_layouts_build_separately(self):
        registry = IndexRegistry(make_database())
        ab = registry.trie("R", ("A", "B"))
        ba = registry.trie("R", ("B", "A"))
        assert ab is not ba
        assert registry.builds == 2
        assert ab.values(()) == [1, 2, 3]
        assert ba.values(()) == [1, 2, 3]  # B-values of R

    def test_hash_index_reuse(self):
        registry = IndexRegistry(make_database())
        first = registry.hash_index("R", ("A",))
        second = registry.hash_index("R", ("A",))
        assert first is second
        assert registry.builds == 1


class TestInvalidation:
    def test_version_bump_rebuilds(self):
        database = make_database()
        registry = IndexRegistry(database)
        stale = registry.trie("R", ("A", "B"))
        database.replace(Relation("R", ("A", "B"), [(7, 8)]))
        fresh = registry.trie("R", ("A", "B"))
        assert fresh is not stale
        assert fresh.values(()) == [7]
        assert registry.builds == 2

    def test_is_warm_tracks_versions(self):
        database = make_database()
        registry = IndexRegistry(database)
        assert not registry.is_warm("R", ("A", "B"))
        registry.trie("R", ("A", "B"))
        assert registry.is_warm("R", ("A", "B"))
        database.replace(Relation("R", ("A", "B"), [(7, 8)]))
        assert not registry.is_warm("R", ("A", "B"))

    def test_invalidate_single_relation(self):
        registry = IndexRegistry(make_database())
        registry.trie("R", ("A", "B"))
        registry.trie("S", ("B", "C"))
        dropped = registry.invalidate("R")
        assert dropped == 1
        assert len(registry) == 1
        assert registry.is_warm("S", ("B", "C"))

    def test_invalidate_all(self):
        registry = IndexRegistry(make_database())
        registry.trie("R", ("A", "B"))
        registry.hash_index("S", ("B",))
        assert registry.invalidate() == 2
        assert len(registry) == 0

    def test_warm_layouts_excludes_stale(self):
        database = make_database()
        registry = IndexRegistry(database)
        registry.trie("R", ("A", "B"))
        registry.trie("S", ("B", "C"))
        database.replace(Relation("S", ("B", "C"), [(9, 9)]))
        assert registry.warm_layouts() == [("R", ("A", "B"))]


class TestStatisticsCatalog:
    def test_one_catalog_per_relation_version(self):
        database = make_database()
        registry = IndexRegistry(database)
        catalog = registry.statistics("R")
        assert registry.statistics("R") is catalog
        assert catalog.degree_map(("A",)) == {1: 1, 2: 1, 3: 1}
        assert registry.builds == 0  # statistics are not index builds

    def test_rebuilt_after_apply_delta_never_served_across_versions(self):
        database = make_database()
        registry = IndexRegistry(database)
        stale = registry.statistics("R")
        database.apply_delta("R", inserts=[(1, 9)], deletes=[(3, 1)])
        fresh = registry.statistics("R")
        assert fresh is not stale
        assert fresh.cardinality == 3
        assert fresh.degree_map(("A",)) == {1: 2, 2: 1}
        assert registry.statistics("S") is registry.statistics("S")

    def test_invalidate_drops_catalogs(self):
        registry = IndexRegistry(make_database())
        r, s = registry.statistics("R"), registry.statistics("S")
        assert registry.invalidate("R") == 0  # catalogs are not indexes
        assert registry.statistics("R") is not r
        assert registry.statistics("S") is s
        registry.invalidate()
        assert registry.statistics("S") is not s


    def test_a_cold_session_keeps_the_catalogs_its_first_dispatch_built(
            self, monkeypatch):
        # An index-less registry is empty (``len() == 0``) but not absent:
        # pricing must fill *it*, once per relation, not a throw-away.
        built = []
        init = DegreeCatalog.__init__
        monkeypatch.setattr(
            DegreeCatalog, "__init__",
            lambda self, relation: (built.append(relation.name),
                                    init(self, relation))[1])
        engine = Engine(make_database())
        assert len(engine.registry) == 0
        engine.explain("Q(A,B,C) :- R(A,B), S(B,C)")
        assert sorted(built) == ["R", "S"]
        kept = engine.registry.statistics("R")
        engine.explain("Q(A,C) :- R(A,B), S(B,C)")
        assert engine.registry.statistics("R") is kept
        assert sorted(built) == ["R", "S"]


class TestDatabaseVersions:
    def test_add_sets_version(self):
        database = Database()
        assert database.version("R") == 0
        database.add(Relation("R", ("A",), [(1,)]))
        assert database.version("R") == 1

    def test_replace_bumps_version(self):
        database = make_database()
        v0 = database.version("R")
        database.replace(Relation("R", ("A", "B"), [(5, 6)]))
        assert database.version("R") == v0 + 1
        assert database.version("S") == 1
