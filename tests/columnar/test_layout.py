"""Dictionary store and sorted-layout invariants, including the
registry's version/epoch-checked layout cache."""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.registry import IndexRegistry
from repro.relational.database import Database
from repro.relational.relation import Relation

np = pytest.importorskip("numpy")

import repro.columnar.layout as layout_module  # noqa: E402
from repro.columnar import ColumnarFallback  # noqa: E402
from repro.columnar.join import columnar_rows  # noqa: E402
from repro.columnar.layout import ColumnarStore, build_layout  # noqa: E402
from repro.engine.session import Engine  # noqa: E402
from repro.query.builder import Query  # noqa: E402


class TestColumnarStore:
    def test_round_trip_integers(self):
        store = ColumnarStore()
        store.register([5, 1, 3, 1])
        assert [store.decode(store.encode(v)) for v in (1, 3, 5)] == [1, 3, 5]

    def test_round_trip_strings(self):
        store = ColumnarStore()
        store.register(["pear", "apple", "fig"])
        assert store.values == ["apple", "fig", "pear"]
        codes = np.asarray([store.encode(v) for v in ("fig", "pear")])
        assert store.decode_column(codes) == ["fig", "pear"]

    def test_round_trip_floats(self):
        store = ColumnarStore()
        store.register([2.5, 0.5, 1.25])
        assert store.values == [0.5, 1.25, 2.5]
        assert store.decode(store.encode(1.25)) == 1.25
        # Floats rule out exact int64 SUM folds.
        assert store.int_domain() is None

    def test_code_order_is_value_order(self):
        store = ColumnarStore()
        store.register([30, 10, 20])
        codes = [store.encode(v) for v in (10, 20, 30)]
        assert codes == sorted(codes)

    def test_mixed_int_float_is_orderable(self):
        # int/float mix sorts fine in Python — allowed, not an error.
        store = ColumnarStore()
        store.register([1, 2.5, 2])
        assert store.values == [1, 2, 2.5]

    def test_mixed_unorderable_domain_raises_clear_typeerror(self):
        store = ColumnarStore()
        with pytest.raises(TypeError, match="totally ordered value domain"):
            store.register([1, "one"])

    def test_failed_registration_leaves_store_untouched(self):
        store = ColumnarStore()
        store.register([1, 2])
        epoch = store.epoch
        with pytest.raises(TypeError):
            store.register(["three"])
        assert store.values == [1, 2]
        assert store.epoch == epoch

    def test_epoch_bumps_only_on_new_values(self):
        store = ColumnarStore()
        store.register([1, 2])
        epoch = store.epoch
        store.register([2, 1])
        assert store.epoch == epoch
        store.register([3])
        assert store.epoch == epoch + 1

    def test_int_domain_guards_magnitude(self):
        store = ColumnarStore()
        store.register([1, 2**40])
        assert store.int_domain() is None


class TestBuildLayout:
    def test_layout_is_lexicographically_sorted(self):
        store = ColumnarStore()
        rel = Relation("R", ("X", "Y"), [(3, 1), (1, 2), (1, 1), (2, 9)])
        store.register(v for row in rel.tuples for v in row)
        layout = build_layout(rel, ("X", "Y"), store)
        decoded = list(zip(store.decode_column(layout.columns[0]),
                           store.decode_column(layout.columns[1])))
        assert decoded == sorted(rel.tuples)

    def test_layout_respects_column_order(self):
        store = ColumnarStore()
        rel = Relation("R", ("X", "Y"), [(3, 1), (1, 2)])
        store.register(v for row in rel.tuples for v in row)
        layout = build_layout(rel, ("Y", "X"), store)
        decoded = list(zip(store.decode_column(layout.columns[0]),
                           store.decode_column(layout.columns[1])))
        assert decoded == sorted((y, x) for x, y in rel.tuples)

    def test_empty_relation(self):
        store = ColumnarStore()
        rel = Relation("R", ("X", "Y"), [])
        layout = build_layout(rel, ("X", "Y"), store)
        assert layout.n == 0


def _trie_nodes(layout, level: int) -> list[tuple[int, int]]:
    """Every trie node at ``level``: the row ranges of equal prefixes."""
    if not layout.n:
        return [(0, 0)]
    prefixes = list(zip(*(column.tolist()
                          for column in layout.columns[:level])))
    if not prefixes:
        return [(0, layout.n)]
    nodes, start = [], 0
    for row in range(1, layout.n + 1):
        if row == layout.n or prefixes[row] != prefixes[start]:
            nodes.append((start, row))
            start = row
    return nodes


@st.composite
def _layouts(draw):
    """A lexsorted layout of 1-3 columns over a store of 1-5 values;
    the small stores make columns duplicate-heavy, and rows may be
    empty."""
    size = draw(st.integers(1, 5))
    arity = draw(st.integers(1, 3))
    rows = draw(st.sets(st.tuples(*[st.integers(0, size - 1)] * arity),
                        max_size=25))
    store = ColumnarStore()
    store.register(range(size))
    attributes = tuple(f"c{i}" for i in range(arity))
    relation = Relation("R", attributes, sorted(rows))
    return build_layout(relation, attributes, store), size


class TestCompositeKeySeek:
    @given(_layouts())
    @settings(max_examples=200, deadline=None)
    def test_seek_equals_bisect_in_every_trie_node(self, drawn):
        """For every trie node and every code of the store — absent ones
        and the largest included — the batched seek returns exactly the
        bisect bounds of the code inside the node's window."""
        layout, size = drawn
        for level, column in enumerate(layout.columns):
            windows = [(lo, hi, code)
                       for lo, hi in _trie_nodes(layout, level)
                       for code in range(size)]
            lo = np.asarray([w[0] for w in windows], dtype=np.int64)
            codes = np.asarray([w[2] for w in windows], dtype=np.int64)
            left, right = layout.seek(level, lo, codes)
            values = column.tolist()
            expected = [(w_lo + bisect_left(values[w_lo:w_hi], code),
                         w_lo + bisect_right(values[w_lo:w_hi], code))
                        for w_lo, w_hi, code in windows]
            assert list(zip(left.tolist(), right.tolist())) == expected

    def test_keys_are_globally_sorted_prefix_ranks(self):
        store = ColumnarStore()
        store.register(range(3))
        rel = Relation("R", ("X", "Y"), [(0, 2), (0, 1), (2, 0), (1, 1)])
        layout = build_layout(rel, ("X", "Y"), store)
        assert layout.keys[0] is layout.columns[0]
        # prefixes (0), (0), (1), (2) rank 0, 0, 1, 2
        assert layout.keys[1].tolist() == [0 * 3 + 1, 0 * 3 + 2,
                                           1 * 3 + 1, 2 * 3 + 0]

    def test_overflow_guard_drops_the_keys(self, monkeypatch):
        """Keys are < n * |dictionary|: a layout at the limit keeps them,
        one past it gets none rather than wrapping int64."""
        store = ColumnarStore()
        store.register(range(4))
        rel = Relation("R", ("X", "Y"), [(0, 1), (1, 2), (3, 3)])
        monkeypatch.setattr(layout_module, "_KEY_LIMIT", 3 * 4)
        assert build_layout(rel, ("X", "Y"), store).keys is not None
        monkeypatch.setattr(layout_module, "_KEY_LIMIT", 3 * 4 - 1)
        assert build_layout(rel, ("X", "Y"), store).keys is None

    def test_overflowing_layout_falls_back_to_the_oracle(self, monkeypatch):
        monkeypatch.setattr(layout_module, "_KEY_LIMIT", 1)
        rows = [(1, 2), (2, 3), (3, 1), (1, 3)]
        engine = Engine(relations=[Relation(name, ("X", "Y"), rows)
                                   for name in "RST"], cache_results=False)
        query = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"
        spec = Query.coerce(query)
        layouts = engine.registry.columnar_layouts(
            [(spec.core.edge_key(i), atom.relation, ("X", "Y"))
             for i, atom in enumerate(spec.core.atoms)])
        with pytest.raises(ColumnarFallback, match="overflow"):
            columnar_rows(spec.core, ("A", "B", "C"), layouts,
                          engine.registry.columnar_store)
        python = engine.execute(query, mode="generic").tuples
        columnar = engine.execute(query, mode="generic",
                                  backend="columnar").tuples
        assert list(columnar) == list(python)


class TestRegistryLayoutCache:
    def _registry(self):
        db = Database([Relation("R", ("X", "Y"), [(1, 2), (2, 3)])])
        return db, IndexRegistry(db)

    def test_layouts_are_reused_until_version_bump(self):
        db, registry = self._registry()
        request = [("R", "R", ("X", "Y"))]
        first = registry.columnar_layouts(request)["R"]
        assert registry.layout_builds == 1
        assert registry.columnar_layouts(request)["R"] is first
        assert registry.layout_reuses == 1
        db.apply_delta("R", inserts=[(5, 6)])
        rebuilt = registry.columnar_layouts(request)["R"]
        assert rebuilt is not first
        assert registry.layout_builds == 2

    def test_epoch_bump_invalidates_other_layouts(self):
        db, registry = self._registry()
        db.add(Relation("S", ("X", "Y"), [("a", "b")]))
        registry.columnar_layouts([("R", "R", ("X", "Y"))])
        assert registry.columnar_is_warm("R", ("X", "Y"))
        # Registering S's strings bumps the shared dictionary epoch,
        # so R's layout (encoded under the old epoch) goes cold...
        with pytest.raises(TypeError):
            registry.columnar_layouts([("S", "S", ("X", "Y"))])
        # ...unless the new registration failed, which must leave every
        # prior layout valid (the store is transactional).
        assert registry.columnar_is_warm("R", ("X", "Y"))

    def test_warm_count_and_invalidate(self):
        db, registry = self._registry()
        registry.columnar_layouts([("R", "R", ("X", "Y")),
                                   ("R2", "R", ("Y", "X"))])
        assert registry.columnar_warm_count() == 2
        registry.invalidate("R")
        assert registry.columnar_warm_count() == 0

    def test_batch_shares_one_epoch(self):
        db, registry = self._registry()
        db.add(Relation("S", ("X", "Y"), [(7, 8)]))
        layouts = registry.columnar_layouts([("R", "R", ("X", "Y")),
                                             ("S", "S", ("X", "Y"))])
        assert layouts["R"].epoch == layouts["S"].epoch
