"""Tests for repro.relational.index (HashIndex and TrieIndex)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.joins.generic_join import resolve_tries
from repro.query.atoms import Atom, ConjunctiveQuery
from repro.relational.database import Database
from repro.relational.index import HashIndex, TrieIndex
from repro.relational.relation import Relation


@pytest.fixture
def edges():
    return Relation("E", ("A", "B"), [(1, 2), (1, 3), (2, 3), (3, 1)])


class TestHashIndex:
    def test_lookup(self, edges):
        index = HashIndex(edges, ("A",))
        assert index.lookup((1,)) == frozenset({(1, 2), (1, 3)})
        assert index.lookup((9,)) == frozenset()

    def test_lookup_dict(self, edges):
        index = HashIndex(edges, ("A",))
        assert index.lookup_dict({"A": 2}) == frozenset({(2, 3)})

    def test_contains_and_count(self, edges):
        index = HashIndex(edges, ("A",))
        assert index.contains((1,))
        assert not index.contains((5,))
        assert index.count((1,)) == 2
        assert index.count((5,)) == 0

    def test_empty_key_single_bucket(self, edges):
        index = HashIndex(edges, ())
        assert index.lookup(()) == edges.tuples

    def test_composite_key(self, edges):
        index = HashIndex(edges, ("A", "B"))
        assert index.count((1, 2)) == 1
        assert len(index) == 4

    def test_max_bucket_size(self, edges):
        assert HashIndex(edges, ("A",)).max_bucket_size() == 2
        assert HashIndex(Relation("E", ("A",), []), ("A",)).max_bucket_size() == 0

    def test_keys(self, edges):
        assert set(HashIndex(edges, ("A",)).keys()) == {(1,), (2,), (3,)}


class TestTrieIndex:
    def test_root_values_sorted(self, edges):
        trie = TrieIndex(edges, ("A", "B"))
        assert trie.values(()) == [1, 2, 3]

    def test_prefix_values(self, edges):
        trie = TrieIndex(edges, ("A", "B"))
        assert trie.values((1,)) == [2, 3]
        assert trie.values((2,)) == [3]
        assert trie.values((9,)) == []

    def test_reverse_order(self, edges):
        trie = TrieIndex(edges, ("B", "A"))
        assert trie.values(()) == [1, 2, 3]
        assert trie.values((3,)) == [1, 2]

    def test_count(self, edges):
        trie = TrieIndex(edges, ("A", "B"))
        assert trie.count(()) == 4
        assert trie.count((1,)) == 2
        assert trie.count((9,)) == 0

    def test_num_children_and_contains_prefix(self, edges):
        trie = TrieIndex(edges, ("A", "B"))
        assert trie.num_children(()) == 3
        assert trie.contains_prefix((1, 2))
        assert not trie.contains_prefix((1, 9))

    def test_seek(self, edges):
        trie = TrieIndex(edges, ("A", "B"))
        assert trie.seek((), 2) == 2
        assert trie.seek((1,), 3) == 3
        assert trie.seek((1,), 4) is None
        assert trie.seek((9,), 0) is None

    def test_unknown_attribute_rejected(self, edges):
        with pytest.raises(SchemaError):
            TrieIndex(edges, ("A", "Z"))

    def test_projection_trie(self, edges):
        # A trie over a single attribute counts projected tuples.
        trie = TrieIndex(edges, ("A",))
        assert trie.values(()) == [1, 2, 3]

    def test_build_tries_uses_global_order(self, edges):
        # Leapfrog Triejoin's precondition: each atom's trie levels follow
        # the restriction of the global variable order to its variables.
        query = ConjunctiveQuery([Atom("E", ("A", "B")), Atom("F", ("B", "C"))])
        database = Database([edges, Relation("F", ("B", "C"), [(2, 5)])])
        tries, orders = resolve_tries(query, database, ("C", "B", "A"))
        assert orders == {"E": ("B", "A"), "F": ("C", "B")}
        assert {key: trie.order for key, trie in tries.items()} == orders

    @given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_trie_values_match_relation_columns(self, tuples):
        relation = Relation("R", ("A", "B"), tuples)
        trie = TrieIndex(relation, ("A", "B"))
        assert set(trie.values(())) == relation.column("A")
        for a in relation.column("A"):
            assert set(trie.values((a,))) == relation.distinct_values("B", {"A": a})

    @given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_trie_counts_sum_to_relation_size(self, tuples):
        relation = Relation("R", ("A", "B"), tuples)
        trie = TrieIndex(relation, ("A", "B"))
        assert trie.count(()) == len(relation)
        assert sum(trie.count((a,)) for a in trie.values(())) == len(relation)


class TestTrieBuildEquivalence:
    """The one-sort build against a per-row reference, on the shapes where
    they could differ: projections that repeat rows, the empty order, the
    empty relation, arity 1."""

    @staticmethod
    def reference(relation, order):
        """prefix -> (sorted next-level values, tuples below), per row."""
        positions = relation.schema.positions(order)
        below: dict = {}
        values: dict = {}
        for t in relation:
            row = tuple(t[p] for p in positions)
            for k in range(len(row) + 1):
                below[row[:k]] = below.get(row[:k], 0) + 1
                if k < len(row):
                    values.setdefault(row[:k], set()).add(row[k])
        return below, {p: sorted(v) for p, v in values.items()}

    def check(self, relation, order):
        trie = TrieIndex(relation, order)
        below, values = self.reference(relation, order)
        assert trie.order == tuple(order)
        assert trie.count(()) == len(relation)
        for prefix, count in below.items():
            expected = values.get(prefix, [])
            assert trie.values(prefix) == expected
            assert trie.count(prefix) == count
            assert trie.num_children(prefix) == len(expected)
            assert trie.contains_prefix(prefix)
            node = trie.node(prefix)
            assert list(node.children) == node.sorted_keys == expected
            for bound in range(-1, 8):
                least = min((v for v in expected if v >= bound), default=None)
                assert trie.seek(prefix, bound) == least
        absent = (99,) * max(len(order), 1)
        assert trie.values(absent) == []
        assert trie.count(absent) == 0
        assert trie.num_children(absent) == 0
        assert not trie.contains_prefix(absent)
        assert trie.seek(absent, 0) is None

    triples = st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                st.integers(0, 3)), max_size=40)

    @given(triples, st.sampled_from([
        (), ("A",), ("C",), ("B", "A"), ("C", "B"), ("A", "B", "C"),
        ("C", "A", "B")]))
    @settings(max_examples=120, deadline=None)
    def test_every_order_of_a_ternary_relation(self, tuples, order):
        self.check(Relation("R", ("A", "B", "C"), tuples), order)

    def test_projection_repeating_rows_keeps_multiplicities(self):
        relation = Relation("R", ("A", "B"), [(1, 1), (1, 2), (1, 3), (2, 1)])
        trie = TrieIndex(relation, ("A",))
        assert trie.count(()) == 4
        assert trie.count((1,)) == 3
        assert trie.count((2,)) == 1
        self.check(relation, ("A",))

    def test_empty_relation_and_arity_one(self):
        self.check(Relation("E", ("A", "B"), []), ("A", "B"))
        self.check(Relation("E", ("A", "B"), []), ())
        self.check(Relation("U", ("A",), [(3,), (1,), (2,)]), ("A",))
        self.check(Relation("U", ("A",), [(3,), (1,)]), ())

    def test_last_level_values_share_one_leaf(self):
        trie = TrieIndex(Relation("R", ("A", "B"), [(1, 2), (1, 3), (2, 3)]),
                         ("A", "B"))
        leaves = {id(leaf) for a in trie.values(())
                  for leaf in trie.node((a,)).children.values()}
        assert len(leaves) == 1
        assert trie.count((1, 2)) == 1 and trie.values((1, 2)) == []
