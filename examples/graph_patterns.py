#!/usr/bin/env python3
"""Graph pattern mining: cliques, cycles and paths on a skewed social graph.

The paper's motivating workload (Section 1.1) is "in-database graph
processing": subgraph pattern queries are cyclic conjunctive queries, which
is exactly where worst-case optimal joins beat every pairwise plan.  This
example mines three patterns on the same synthetic social network and shows,
for each, the AGM bound, the WCOJ work, and the best pairwise plan's largest
intermediate result.

Run with:  python examples/graph_patterns.py
"""

from repro import (Database, Engine, OperationCounter, Relation, agm_bound,
                   generic_join)
from repro.datagen.graphs import social_graph, undirected_closure
from repro.joins.binary_plans import best_left_deep_execution
from repro.query.atoms import clique_query, cycle_query, path_query


def bind_pattern(query, edges) -> Database:
    """Bind every binary atom of a pattern query to the same edge relation."""
    relations = []
    for atom in query.atoms:
        relations.append(Relation(atom.relation, ("A", "B"), edges.tuples))
    return Database(relations)


def main() -> None:
    edges = undirected_closure(social_graph(num_vertices=120, average_degree=4, seed=3))
    print(f"social graph: {len(edges)} directed edges\n")

    patterns = {
        "triangle (3-clique)": clique_query(3),
        "4-cycle": cycle_query(4),
        "length-3 path": path_query(3),
    }
    for name, query in patterns.items():
        database = bind_pattern(query, edges)
        bound = agm_bound(query, database)
        choice = Engine(database=database).explain(query)

        counter = OperationCounter()
        matches = generic_join(query, database, counter=counter)
        pairwise = best_left_deep_execution(query, database)

        print(f"pattern: {name}")
        print(f"  hypergraph acyclic: {choice.acyclic} -> engine picks {choice.strategy}")
        print(f"  AGM bound:          {bound.bound:,.0f}")
        print(f"  matches:            {len(matches):,}")
        print(f"  WCOJ operations:    {counter.total():,}")
        print(f"  best pairwise plan: {pairwise.counter.total():,} operations, "
              f"max intermediate {pairwise.max_intermediate:,}")
        print()


if __name__ == "__main__":
    main()
