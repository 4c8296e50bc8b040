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

All three are :func:`~repro.joins.generic_join.generic_join_stream`: the two
counts are its in-recursion COUNT semiring (grouped on a prefix of the
variable order, or on nothing), SumProd folds its tuples — so they run within
Generic-Join's worst-case-optimal budget on the one recursion the engine uses.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.joins.generic_join import generic_join_stream
from repro.joins.instrumentation import OperationCounter
from repro.query.atoms import ConjunctiveQuery
from repro.query.semiring import count
from repro.query.variable_order import min_degree_order, validate_order
from repro.relational.database import Database


def count_join(query: ConjunctiveQuery, database: Database,
               order: Sequence[str] | None = None,
               counter: OperationCounter | None = None) -> int:
    """Count |Q(D)| without materializing the output (0 on an empty join).

    The traversal is exactly Generic-Join's, so the work is within the same
    worst-case-optimal bound; only an integer is carried back up the
    recursion.
    """
    ((total,),) = generic_join_stream(query, database, order=order,
                                      counter=counter, head=(),
                                      aggregates=[count()])
    return total


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
        order = group_by + tuple(v for v in min_degree_order(query)
                                 if v not in group_by)
    elif tuple(validate_order(query, order)[:len(group_by)]) != group_by:
        raise ValueError("the variable order must start with the group-by variables")
    grouped = generic_join_stream(query, database, order=order,
                                  counter=counter, head=group_by,
                                  aggregates=[count()])
    return {row[:-1]: row[-1] for row in grouped if row[-1]}


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
    weight_functions = weight_functions or {}
    column = {v: i for i, v in enumerate(query.variables)}
    weighted = [(func, [column[v] for v in atom.variables])
                for i, atom in enumerate(query.atoms)
                if (func := weight_functions.get(query.edge_key(i)))]
    total = 0.0
    for row in generic_join_stream(query, database, order=order,
                                   counter=counter):
        product = 1.0
        for func, columns in weighted:
            product *= func(tuple(row[c] for c in columns))
        total += product
    return total
