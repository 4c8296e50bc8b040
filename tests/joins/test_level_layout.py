"""The WCOJ level layout: one function decides where a plan's prefix ends.

:func:`repro.query.variable_order.level_layout` is what the python
recursion, the columnar descent, the pricer and ``explain()`` read; its
``QueryError`` is the one every runner raises for an order that
interleaves an unpinned variable into the prefix the plan needs.
"""

from __future__ import annotations

import pytest

from repro.engine.executors import _trie_requests
from repro.engine.session import Engine
from repro.errors import QueryError
from repro.joins.generic_join import generic_join_stream
from repro.joins.leapfrog import leapfrog_stream
from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.semiring import Aggregate
from repro.query.terms import comparison
from repro.query.variable_order import level_layout
from repro.relational.relation import Relation

CHAIN = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("B", "C"))])
STAR = ConjunctiveQuery([Atom("R", ("A", "B")), Atom("S", ("A", "C")),
                         Atom("T", ("A", "D"))])

#: Per case: the order, the runner's keyword arguments, and what the
#: message says the plan needs.
INTERLEAVED = {
    "aggregate": (("B", "A", "C"),
                  {"head": ("A",),
                   "aggregates": [Aggregate("count", None, "n")]},
                  "in-recursion aggregation needs the group as a prefix"),
    "key": (("B", "A", "C"), {"head": ("A", "C"), "ranked": [("A", False)]},
            "any-k enumeration needs the sort keys as a prefix"),
    "head": (("A", "B", "C"), {"head": ("A", "C"), "ranked": [("A", False)]},
             "any-k emission needs the head as a prefix"),
}


def _engine() -> Engine:
    return Engine(relations=[Relation("R", ("a", "b"), [(1, 2), (1, 3)]),
                             Relation("S", ("b", "c"), [(2, 4), (3, 4)])],
                  cache_results=False)


@pytest.mark.parametrize("case", sorted(INTERLEAVED))
def test_runners_raise_the_layout_interleave_error(case):
    order, kwargs, needs = INTERLEAVED[case]
    keys = [v for v, _d in kwargs["ranked"]] if "ranked" in kwargs else None
    with pytest.raises(QueryError, match=needs) as expected:
        level_layout(CHAIN, order, head=kwargs["head"],
                     aggregate="aggregates" in kwargs, keys=keys)
    assert "interleaves unpinned non-" in str(expected.value)
    engine = _engine()
    messages = {}
    for name, stream in (("generic", generic_join_stream),
                         ("leapfrog", leapfrog_stream)):
        with pytest.raises(QueryError) as raised:
            list(stream(CHAIN, engine.database, order=order, **kwargs))
        messages[name] = str(raised.value)
    if "ranked" not in kwargs:  # the columnar kernel has no any-k mode
        pytest.importorskip("numpy")
        from repro.columnar.join import columnar_rows
        layouts = engine.registry.columnar_layouts(
            _trie_requests(CHAIN, engine.database, order))
        with pytest.raises(QueryError) as raised:
            columnar_rows(CHAIN, order, layouts,
                          engine.registry.columnar_store, **kwargs)
        messages["columnar"] = str(raised.value)
    assert messages and set(messages.values()) == {str(expected.value)}


def test_a_pinned_variable_may_precede_the_group():
    pinned = (comparison("B", "==", 2),)
    layout = level_layout(CHAIN, ("B", "A", "C"), pinned, head=("A",),
                          aggregate=True)
    assert (layout.stop, layout.seen_set, layout.fires_at) == (2, False, (0,))


@pytest.mark.parametrize("order, head, stop, seen_set", [
    (("A", "B", "C"), None, 3, False),        # full enumeration
    (("A", "B", "C"), ("A",), 1, False),      # existential tail
    (("A", "B", "C"), ("A", "C"), 3, True),   # guarded: a seen-set
    (("C", "A", "B"), ("A", "C"), 2, False),
    (("A", "B", "C"), (), 0, False),          # boolean: one witness
])
def test_projection_stop_and_seen_set(order, head, stop, seen_set):
    layout = level_layout(CHAIN, order, head=head)
    assert (layout.stop, layout.seen_set, layout.key_depth) == (
        stop, seen_set, 0)


def test_any_k_key_depth_and_emission_stop():
    layout = level_layout(CHAIN, ("B", "A", "C"), head=("B", "A"),
                          keys=("B",))
    assert (layout.key_depth, layout.stop) == (1, 2)


def test_selections_fire_at_their_deepest_variable():
    selections = (comparison("C", ">", 1), comparison("A", "<", "C"),
                  comparison("B", "==", 4))
    layout = level_layout(CHAIN, ("B", "C", "A"), selections)
    assert layout.fires_at == (1, 2, 0)


def test_components_are_sorted_positions_glued_by_selections():
    order = ("A", "B", "C", "D")
    assert level_layout(STAR, order).components(1) == ((1,), (2,), (3,))
    glued = level_layout(STAR, order, (comparison("B", "<", "D"),))
    assert sorted(glued.components(1)) == [(1, 3), (2,)]
    assert glued.components(0) == ((0, 1, 2, 3),)


def test_unknown_selection_variable_is_rejected():
    with pytest.raises(ValueError, match="outside the query variables"):
        level_layout(CHAIN, ("A", "B", "C"), (comparison("Z", "==", 1),))
