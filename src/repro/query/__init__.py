"""The query model: atoms, conjunctive queries, and the unified surface.

Classical pieces (hypergraphs, orderings, decompositions) live beside the
rich declarative surface: :class:`~repro.query.builder.Query` with its
chainable ``Q`` builder, term constants, comparison selections, semiring
aggregates, and ordered/top-k result controls.
"""
