"""The query model: atoms, conjunctive queries, and the unified surface.

Classical pieces (hypergraphs, orderings, decompositions) live beside the
rich declarative surface: :class:`~repro.query.builder.Query` with its
chainable ``Q`` builder, term constants, comparison selections, semiring
aggregates, and ordered/top-k result controls.
"""

from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.builder import Q, Query, QueryAtom, QueryBuilder, sort_rows
from repro.query.hypergraph import Hypergraph
from repro.query.parser import parse_condition, parse_query
from repro.query.semiring import (
    Aggregate,
    BOOLEAN,
    Semiring,
    SEMIRINGS,
    avg_,
    count,
    fold_aggregates,
    max_,
    min_,
    register_semiring,
    sum_,
)
from repro.query.terms import Comparison, Constant, comparison, make_term
from repro.query.variable_order import (
    aggregate_elimination_order,
    min_degree_order,
    pushdown_order,
)
from repro.query.decomposition import (
    gyo_reduction,
    is_alpha_acyclic,
    join_tree,
)
from repro.query.widths import (
    TreeDecomposition,
    decomposition_from_elimination_order,
    fractional_hypertree_width,
    min_fill_order,
)

__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "Q",
    "Query",
    "QueryAtom",
    "QueryBuilder",
    "sort_rows",
    "Hypergraph",
    "parse_query",
    "parse_condition",
    "Aggregate",
    "BOOLEAN",
    "Semiring",
    "SEMIRINGS",
    "avg_",
    "count",
    "fold_aggregates",
    "max_",
    "min_",
    "register_semiring",
    "sum_",
    "Comparison",
    "Constant",
    "comparison",
    "make_term",
    "aggregate_elimination_order",
    "min_degree_order",
    "pushdown_order",
    "gyo_reduction",
    "is_alpha_acyclic",
    "join_tree",
    "TreeDecomposition",
    "decomposition_from_elimination_order",
    "fractional_hypertree_width",
    "min_fill_order",
]
