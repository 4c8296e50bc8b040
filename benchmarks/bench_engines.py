"""Ablation benchmarks across engines and evaluation modes.

* Yannakakis vs Generic-Join on acyclic (chain) queries — the classical
  output-linear algorithm vs the WCOJ engine on the instances where both
  apply.
* Counting vs materializing the triangle output — the FAQ-style aggregate
  traversal against full enumeration.
* The backtracking search (Algorithm 3) vs Generic-Join on the same
  degree-constrained instance (how much the degree statistics help).
"""

import pytest

from repro.datagen.graphs import erdos_renyi_graph
from repro.datagen.worstcase import triangle_from_graph
from repro.experiments.acyclic_dc import chain_instance
from repro.joins.backtracking import backtracking_join
from repro.joins.counting import count_join, group_count
from repro.joins.generic_join import generic_join
from repro.joins.yannakakis import yannakakis

CHAIN_QUERY, CHAIN_DB, CHAIN_DC = chain_instance(num_r=150, fanout=3, seed=3)
TRI_QUERY, TRI_DB = triangle_from_graph(erdos_renyi_graph(120, 1500, seed=4))


@pytest.mark.experiment("ablation")
def test_yannakakis_on_chain(benchmark):
    result = benchmark(yannakakis, CHAIN_QUERY, CHAIN_DB)
    assert result == generic_join(CHAIN_QUERY, CHAIN_DB)


@pytest.mark.experiment("ablation")
def test_generic_join_on_chain(benchmark):
    result = benchmark(generic_join, CHAIN_QUERY, CHAIN_DB)
    assert len(result) > 0


@pytest.mark.experiment("ablation")
def test_algorithm3_on_chain(benchmark):
    result = benchmark(backtracking_join, CHAIN_QUERY, CHAIN_DB, CHAIN_DC)
    assert len(result) > 0


@pytest.mark.experiment("ablation")
def test_triangle_count_only(benchmark):
    count = benchmark(count_join, TRI_QUERY, TRI_DB)
    assert count == len(generic_join(TRI_QUERY, TRI_DB))


@pytest.mark.experiment("ablation")
def test_triangle_materialize(benchmark):
    result = benchmark(generic_join, TRI_QUERY, TRI_DB)
    assert len(result) >= 0


@pytest.mark.experiment("ablation")
def test_triangle_group_count(benchmark):
    per_vertex = benchmark(group_count, TRI_QUERY, TRI_DB, ("A",))
    assert sum(per_vertex.values()) == count_join(TRI_QUERY, TRI_DB)
