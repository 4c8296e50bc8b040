"""Ablation benchmark: hash-probe vs leapfrog (sorted-seek) intersections.

This is design decision #1 from DESIGN.md: both intersection strategies
satisfy the paper's O~(min size) requirement, and Generic-Join vs Leapfrog
Triejoin differ only in which one they use.  The benchmark measures the two
primitives head-to-head on balanced and skewed inputs, and the two engines
end-to-end on the same triangle instance.
"""

import random

import pytest

from repro.datagen.worstcase import triangle_agm_tight_instance, triangle_skew_instance
from repro.joins.generic_join import generic_join, hash_probe_intersect
from repro.joins.leapfrog import leapfrog_intersect, leapfrog_triejoin
from repro.relational.index import TrieIndex
from repro.relational.relation import Relation


def _sorted_lists(sizes, overlap, seed):
    rng = random.Random(seed)
    universe = list(range(max(sizes) * 4))
    common = rng.sample(universe, overlap)
    lists = []
    for i, size in enumerate(sizes):
        extra = rng.sample(universe, size)
        lists.append(sorted(set(common) | set(extra)))
    return lists


BALANCED = _sorted_lists([2000, 2000, 2000], overlap=200, seed=1)
SKEWED = _sorted_lists([50, 5000, 5000], overlap=20, seed=2)


@pytest.mark.experiment("ablation")
@pytest.mark.parametrize("shape,lists", [("balanced", BALANCED), ("skewed", SKEWED)])
def test_hash_probe_intersection(benchmark, shape, lists):
    # The engine's own kernel, over the trie nodes it probes: building the
    # nodes is index construction, outside the timed call.
    nodes = [TrieIndex(Relation("L", ("V",), [(v,) for v in lst]), ("V",)).root
             for lst in lists]
    result = benchmark(hash_probe_intersect, nodes)
    assert len(result) >= 1


@pytest.mark.experiment("ablation")
@pytest.mark.parametrize("shape,lists", [("balanced", BALANCED), ("skewed", SKEWED)])
def test_leapfrog_intersection(benchmark, shape, lists):
    result = benchmark(leapfrog_intersect, lists)
    assert len(result) >= 1


@pytest.mark.experiment("ablation")
@pytest.mark.parametrize("family", ["skew", "agm_tight"])
def test_generic_join_end_to_end(benchmark, family):
    make = triangle_skew_instance if family == "skew" else triangle_agm_tight_instance
    query, database = make(300)
    result = benchmark(generic_join, query, database)
    assert len(result) > 0


@pytest.mark.experiment("ablation")
@pytest.mark.parametrize("family", ["skew", "agm_tight"])
def test_leapfrog_end_to_end(benchmark, family):
    make = triangle_skew_instance if family == "skew" else triangle_agm_tight_instance
    query, database = make(300)
    result = benchmark(leapfrog_triejoin, query, database)
    assert len(result) > 0
