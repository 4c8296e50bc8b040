"""The paper's one algorithmic assumption (Section 2), made executable.

"We can loop through the intersection of two sets X and Y in time
O(min(|X|, |Y|))" is what Algorithm 1's triangle bound and Generic-Join's
AGM bound are proved from.  The operation counter *charges* that work;
these tests check that the kernel also *does* no more than it charges,
by joining values that count every ``__hash__`` / ``__eq__`` / ``__lt__``
call made on them.
"""

import math

import pytest

from repro.datagen.graphs import erdos_renyi_graph, zipf_graph
from repro.engine import Engine
from repro.joins.generic_join import (
    generic_join_stream,
    hash_probe_intersect,
    resolve_tries,
)
from repro.joins.instrumentation import OperationCounter
from repro.joins.leapfrog import leapfrog_stream
from repro.query.atoms import triangle_query
from repro.relational.database import Database
from repro.relational.index import TrieIndex
from repro.relational.relation import Relation


class Counted:
    """An integer that tallies the hash and comparison calls made on it."""

    calls = 0
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self) -> int:
        Counted.calls += 1
        return hash(self.value)

    def __eq__(self, other) -> bool:
        Counted.calls += 1
        return self.value == other.value

    def __lt__(self, other) -> bool:
        Counted.calls += 1
        return self.value < other.value

    def __repr__(self) -> str:
        return f"Counted({self.value})"


def unary_node(values):
    relation = Relation("L", ("V",), [(Counted(v),) for v in values])
    return TrieIndex(relation, ("V",)).root


def test_small_node_against_large_node_costs_the_small_one():
    small = unary_node(range(0, 10_000, 2_000))      # 5 keys
    large = unary_node(range(10_000))
    for nodes in ([small, large], [large, small], [large, small, large]):
        counter = OperationCounter()
        Counted.calls = 0
        result = hash_probe_intersect(nodes, counter)
        assert [v.value for v in result] == [0, 2_000, 4_000, 6_000, 8_000]
        assert counter.intersection_steps == 5
        # One hash and one equality per probe of each other node.
        assert Counted.calls <= 4 * 5 * (len(nodes) - 1)


def test_single_node_is_not_copied():
    node = unary_node(range(100))
    Counted.calls = 0
    assert hash_probe_intersect([node]) is node.sorted_keys
    assert Counted.calls == 0


def skewed_triangle(n: int = 120):
    """Two hubs of degree ``n`` in every relation beside a sparse ring:
    most search nodes intersect a short list with a hub's long one."""
    pairs = {(0, j) for j in range(n)} | {(i, 0) for i in range(n)}
    pairs |= {(1, j) for j in range(n)} | {(i, 1) for i in range(n)}
    pairs |= {(i, (i + 1) % n) for i in range(n)}
    relations = [
        Relation(name, attrs, [(Counted(a), Counted(b)) for a, b in pairs])
        for name, attrs in (("R", ("A", "B")), ("S", ("B", "C")),
                            ("T", ("A", "C")))]
    return triangle_query(), Database(relations), pairs


@pytest.mark.parametrize("stream", [generic_join_stream, leapfrog_stream])
def test_skewed_triangle_does_the_work_it_charges(stream):
    query, database, pairs = skewed_triangle()
    order = ("A", "B", "C")
    tries, _orders = resolve_tries(query, database, order)
    counter = OperationCounter()
    Counted.calls = 0
    rows = list(stream(query, database, order=order, counter=counter,
                       tries=tries))
    calls = Counted.calls
    expected = {(a, b, c) for a, b in pairs for c in range(120)
                if (b, c) in pairs and (a, c) in pairs}
    assert {(a.value, b.value, c.value) for a, b, c in rows} == expected

    # Charged work: the intersection steps, with a galloping seek's log
    # factor for leapfrog.  The cursor descents (one ``children`` lookup
    # per atom per search node) fit inside the constant.
    widest = max(trie.num_children() for trie in tries.values())
    charged = (counter.intersection_steps
               + counter.seeks * math.ceil(math.log2(widest)))
    assert charged > 0
    assert calls <= 4 * charged, (calls, charged, counter.as_dict())


# ---------------------------------------------------------------------
# The same audit one level up: whole queries through Engine.execute.
# ---------------------------------------------------------------------
AUDIT_SHAPES = {
    "triangle": ("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", False),
    "cycle4": ("Q(A,B,C,D) :- R(A,B), S(B,C), U(C,D), V(D,A)", False),
    "path3": ("Q(A,B,C,D) :- R(A,B), S(B,C), U(C,D)", True),
    "path3_projected": ("Q(A,D) :- R(A,B), S(B,C), U(C,D)", True),
    "star_count": ("Q(A, COUNT(*) AS n) :- R(A,B), T(A,C), V(D,A)", True),
    "path3_top": ("Q(A,B,C,D) :- R(A,B), S(B,C), U(C,D) "
                  "ORDER BY D DESC, A LIMIT 10", True),
}
AUDIT_CELLS = [
    (instance, shape, mode)
    for instance in ("uniform", "zipf")
    for shape, (_query, acyclic) in AUDIT_SHAPES.items()
    for mode in ("generic", "leapfrog", "yannakakis", "binary")
    if acyclic or mode != "yannakakis"
]


@pytest.fixture(scope="module")
def audit_engines():
    """One warm-able engine per instance: five 120-vertex, 480-edge
    relations, uniform or Zipf(0.8) on both endpoints, fixed seeds."""
    def relations(instance):
        for seed, name in enumerate("RSTUV"):
            graph = (erdos_renyi_graph(120, 480, seed=seed)
                     if instance == "uniform"
                     else zipf_graph(120, 480, skew=0.8, seed=seed))
            yield Relation(name, ("x", "y"),
                           [(Counted(a), Counted(b)) for a, b in graph])
    return {instance: Engine(relations=relations(instance),
                             cache_results=False)
            for instance in ("uniform", "zipf")}


@pytest.mark.parametrize("instance,shape,mode", AUDIT_CELLS)
def test_every_strategy_does_the_work_it_charges(audit_engines, instance,
                                                 shape, mode):
    """Value calls per charged operation stay under one constant, c = 5,
    for every forced python strategy: the operation counts the
    dispatcher prices and the gates compare are one currency.

    Every run is the second of its query, so plans and indexes are warm
    and the calls are the join's.  Hybrid and naive are not in the grid.
    Hybrid's light side builds its tries per run, outside the registry,
    and its partitions are uncharged ``Relation`` copies (about 9.5 calls
    per operation on the uniform triangle).  Naive is the nested-loop
    oracle, not a strategy the counts are compared on.
    """
    engine = audit_engines[instance]
    query, _acyclic = AUDIT_SHAPES[shape]
    engine.execute(query, mode=mode, backend="python")
    counter = OperationCounter()
    Counted.calls = 0
    engine.execute(query, mode=mode, backend="python", counter=counter)
    assert Counted.calls <= 5 * counter.total(), (
        Counted.calls, counter.as_dict())
