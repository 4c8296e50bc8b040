#!/usr/bin/env python3
"""Aggregates and the acyclic/cyclic divide.

Two follow-ups to the quickstart that exercise the rest of the public API:

1. *Aggregation without materialization* — count triangles globally and per
   vertex with the FAQ-style counting traversal (same worst-case-optimal
   budget as Generic-Join, no output materialized).
2. *The acyclic/cyclic divide* — for an acyclic chain query, Yannakakis'
   algorithm is output-linear and the optimizer prefers classical plans; for
   the cyclic triangle it switches to WCOJ.  Width parameters (fractional
   hypertree width) quantify the divide.

Run with:  python examples/aggregation_and_acyclic.py
"""

from repro import Database, OperationCounter, Relation
from repro.covers.hypertree import fractional_hypertree_width
from repro.datagen.graphs import social_graph, undirected_closure
from repro.joins.counting import count_join, group_count
from repro.joins.generic_join import generic_join
from repro.joins.yannakakis import yannakakis
from repro.query.atoms import Atom, ConjunctiveQuery, path_query, triangle_query
from repro.query.decomposition import is_alpha_acyclic


def main() -> None:
    edges = undirected_closure(social_graph(num_vertices=250, average_degree=6, seed=13))
    triangle_db = Database([
        Relation("R", ("A", "B"), edges.tuples),
        Relation("S", ("B", "C"), edges.tuples),
        Relation("T", ("A", "C"), edges.tuples),
    ])
    query = triangle_query()

    # 1. Counting without materializing.
    count_counter = OperationCounter()
    total = count_join(query, triangle_db, counter=count_counter)
    materialize_counter = OperationCounter()
    materialized = generic_join(query, triangle_db, counter=materialize_counter)
    print("triangle counting on a social graph")
    print(f"  count_join:    {total:,} triangles, {count_counter.total():,} operations")
    print(f"  generic_join:  {len(materialized):,} triangles, "
          f"{materialize_counter.total():,} operations (materialized)")

    per_vertex = group_count(query, triangle_db, group_by=("A",))
    top = sorted(per_vertex.items(), key=lambda kv: -kv[1])[:5]
    print("  top-5 vertices by triangle participation:")
    for (vertex,), count in top:
        print(f"    vertex {vertex}: {count} triangles")
    print()

    # 2. The acyclic/cyclic divide.
    chain = ConjunctiveQuery([
        Atom("Follows", ("A", "B")), Atom("Posts", ("B", "C")), Atom("Tags", ("C", "D")),
    ])
    chain_db = Database([
        Relation("Follows", ("A", "B"), edges.tuples),
        Relation("Posts", ("B", "C"), [(v, v % 17) for v, _ in edges.tuples]),
        Relation("Tags", ("C", "D"), [(c, c % 5) for c in range(17)]),
    ])
    for name, q in (("triangle", query), ("follows->posts->tags chain", chain),
                    ("length-2 path", path_query(2))):
        h = q.hypergraph()
        print(f"query: {name}")
        print(f"  alpha-acyclic:             {is_alpha_acyclic(h)}")
        print(f"  fractional hypertree width: {fractional_hypertree_width(h):.2f}")
    print()

    yk_counter = OperationCounter()
    chain_result = yannakakis(chain, chain_db, counter=yk_counter)
    gj_counter = OperationCounter()
    generic_join(chain, chain_db, counter=gj_counter)
    print("acyclic chain query evaluation:")
    print(f"  Yannakakis:   {len(chain_result):,} tuples, {yk_counter.total():,} operations")
    print(f"  Generic-Join: {len(chain_result):,} tuples, {gj_counter.total():,} operations")
    print("  (both are fine here; the separation only appears on cyclic queries)")


if __name__ == "__main__":
    main()
