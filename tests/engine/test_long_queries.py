"""A plan miss is polynomial in the query: long paths and cycles plan fast.

The AGM bound of a plan miss is one exact simplex solve, so a fresh
``Engine`` plans and runs a 30-atom path or a 20-cycle in milliseconds;
enumerating the cover polyhedron's vertices instead took seconds at 12
atoms and grows exponentially with the atom count.
"""

import time

import pytest

from repro import Engine, Relation
from repro.query.atoms import cycle_query, path_query

#: A directed 20-cycle graph: every path or cycle query over it has
#: exactly one answer per start vertex.
RING = [(v, (v + 1) % 20) for v in range(20)]


@pytest.mark.parametrize("query", [path_query(30), cycle_query(20)],
                         ids=["30-path", "20-cycle"])
def test_fresh_engine_plans_and_runs_in_well_under_a_second(query):
    relations = [Relation(atom.relation, ("X", "Y"), RING)
                 for atom in query.atoms]
    start = time.perf_counter()
    engine = Engine(relations=relations)
    result = engine.execute(query)
    elapsed = time.perf_counter() - start
    assert engine.stats.plan_misses == 1
    width = len(query.head)
    assert result.sorted_tuples() == [
        tuple((v + k) % 20 for k in range(width)) for v in range(20)]
    assert elapsed < 1.0
