"""Counting and aggregation over joins without materializing the output.

The paper stresses (Section 1.1) that the bounds and algorithms apply to
aggregate queries in a very general setting (the FAQ framework), conjunctive
queries being the special case.  This module provides the two most common
aggregate forms over a full conjunctive query:

* :func:`count_join` — |Q(D)| computed by the Generic-Join recursion without
  storing output tuples (the triangle-counting workload of the paper's
  introduction);
* :func:`group_count` — per-binding counts over a prefix of the variable
  order, e.g. "number of triangles per vertex";
* :func:`sum_product` — a semiring-style SumProd aggregate
  ``sum over output of the product of per-atom weights`` (the left-hand side
  of Friedgut's inequality, Theorem 4.1), which subsumes counting when every
  weight is 1.

All three run within the same worst-case-optimal budget as Generic-Join: the
recursion tree they traverse is identical, only the leaves differ.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.joins.generic_join import hash_probe_intersect
from repro.joins.instrumentation import OperationCounter
from repro.query.atoms import ConjunctiveQuery
from repro.query.variable_order import min_degree_order, validate_order
from repro.relational.database import Database
from repro.relational.index import TrieIndex


class _JoinTraversal:
    """Shared Generic-Join-style traversal used by the aggregate functions."""

    def __init__(self, query: ConjunctiveQuery, database: Database,
                 order: Sequence[str] | None,
                 counter: OperationCounter | None):
        if order is None:
            order = min_degree_order(query)
        else:
            order = validate_order(query, order)
        self.order = tuple(order)
        self.counter = counter
        bound_relations = query.bind(database)
        self.tries: dict[str, TrieIndex] = {}
        self.trie_orders: dict[str, tuple[str, ...]] = {}
        for edge_key, relation in bound_relations.items():
            atom_order = tuple(v for v in self.order if v in relation.schema)
            self.tries[edge_key] = TrieIndex(relation, atom_order)
            self.trie_orders[edge_key] = atom_order
        self.relevant: dict[str, list[str]] = {v: [] for v in self.order}
        for edge_key, atom_order in self.trie_orders.items():
            for v in atom_order:
                self.relevant[v].append(edge_key)
        self.binding: dict[str, Any] = {}

    def candidates(self, variable: str) -> list[Any]:
        nodes = []
        for edge_key in self.relevant[variable]:
            atom_order = self.trie_orders[edge_key]
            depth = atom_order.index(variable)
            prefix = tuple(self.binding[v] for v in atom_order[:depth])
            node = self.tries[edge_key].node(prefix)
            if node is None:
                return []
            nodes.append(node)
        return hash_probe_intersect(nodes, self.counter)


def count_join(query: ConjunctiveQuery, database: Database,
               order: Sequence[str] | None = None,
               counter: OperationCounter | None = None) -> int:
    """Count |Q(D)| without materializing the output.

    The traversal is exactly Generic-Join's, so the work is within the same
    worst-case-optimal bound; only an integer is carried back up the
    recursion.
    """
    traversal = _JoinTraversal(query, database, order, counter)
    order_ = traversal.order

    def recurse(depth: int) -> int:
        if depth == len(order_):
            return 1
        variable = order_[depth]
        if counter is not None:
            counter.charge(search_nodes=1)
        total = 0
        for value in traversal.candidates(variable):
            traversal.binding[variable] = value
            total += recurse(depth + 1)
            del traversal.binding[variable]
        return total

    return recurse(0)


def group_count(query: ConjunctiveQuery, database: Database,
                group_by: Sequence[str],
                order: Sequence[str] | None = None,
                counter: OperationCounter | None = None) -> dict[tuple, int]:
    """Count output tuples per binding of ``group_by`` variables.

    The grouping variables are forced to the front of the variable order so
    each group is a subtree of the recursion and the count per group is
    accumulated without materializing tuples.  Groups with zero matches are
    omitted.
    """
    group_by = tuple(group_by)
    unknown = [v for v in group_by if v not in query.variables]
    if unknown:
        raise ValueError(f"group-by variables {unknown} are not query variables")
    if order is None:
        base = [v for v in min_degree_order(query) if v not in group_by]
        order = tuple(group_by) + tuple(base)
    else:
        order = validate_order(query, order)
        if tuple(order[:len(group_by)]) != group_by:
            raise ValueError("the variable order must start with the group-by variables")

    traversal = _JoinTraversal(query, database, order, counter)
    order_ = traversal.order
    results: dict[tuple, int] = {}

    def count_subtree(depth: int) -> int:
        if depth == len(order_):
            return 1
        variable = order_[depth]
        if counter is not None:
            counter.charge(search_nodes=1)
        total = 0
        for value in traversal.candidates(variable):
            traversal.binding[variable] = value
            total += count_subtree(depth + 1)
            del traversal.binding[variable]
        return total

    def enumerate_groups(depth: int) -> None:
        if depth == len(group_by):
            count = count_subtree(depth)
            if count:
                key = tuple(traversal.binding[v] for v in group_by)
                results[key] = count
            return
        variable = order_[depth]
        if counter is not None:
            counter.charge(search_nodes=1)
        for value in traversal.candidates(variable):
            traversal.binding[variable] = value
            enumerate_groups(depth + 1)
            del traversal.binding[variable]

    enumerate_groups(0)
    return results


def sum_product(query: ConjunctiveQuery, database: Database,
                weight_functions: Mapping[str, Callable[[tuple], float]] | None = None,
                order: Sequence[str] | None = None,
                counter: OperationCounter | None = None) -> float:
    """The SumProd aggregate ``sum_{a in Q} prod_F w_F(a_F)``.

    ``weight_functions`` maps an atom's edge key to a non-negative weight
    function on its tuples (in the atom's variable order); missing entries
    default to the constant 1, so with no weights at all this equals
    ``count_join``.  This is the quantity Friedgut's inequality (Theorem 4.1)
    bounds, evaluated in worst-case-optimal time.
    """
    weight_functions = dict(weight_functions or {})
    traversal = _JoinTraversal(query, database, order, counter)
    order_ = traversal.order
    variables = query.variables
    atom_info = []
    for i, atom in enumerate(query.atoms):
        key = query.edge_key(i)
        if key in weight_functions:
            atom_info.append((key, atom.variables, weight_functions[key]))

    def recurse(depth: int) -> float:
        if depth == len(order_):
            product = 1.0
            for _key, atom_vars, func in atom_info:
                values = tuple(traversal.binding[v] for v in atom_vars)
                product *= func(values)
            return product
        variable = order_[depth]
        if counter is not None:
            counter.charge(search_nodes=1)
        total = 0.0
        for value in traversal.candidates(variable):
            traversal.binding[variable] = value
            total += recurse(depth + 1)
            del traversal.binding[variable]
        return total

    return recurse(0)
