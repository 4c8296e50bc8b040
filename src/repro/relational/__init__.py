"""Relational storage and algebra substrate.

This subpackage implements the "database engine" the paper assumes as given:
relations with named attributes, hash and trie indexes whose intersections
run in time proportional to the smaller argument, the classical relational
algebra operators, and the statistics extraction (cardinalities and degrees)
needed to state degree constraints.
"""

from repro.relational.schema import Schema
from repro.relational.relation import Relation
from repro.relational.database import AppliedDelta, Database
from repro.relational.index import HashIndex, TrieIndex
from repro.relational.operators import (
    select,
    project,
    rename,
    natural_join,
    semijoin,
    union,
    difference,
    cartesian_product,
)
from repro.relational.statistics import (
    DegreeCatalog,
    cardinality,
    degree,
    join_size,
    max_degree,
    size_bucket,
    statistics_fingerprint,
)

__all__ = [
    "Schema",
    "Relation",
    "AppliedDelta",
    "Database",
    "HashIndex",
    "TrieIndex",
    "select",
    "project",
    "rename",
    "natural_join",
    "semijoin",
    "union",
    "difference",
    "cartesian_product",
    "cardinality",
    "DegreeCatalog",
    "degree",
    "max_degree",
    "join_size",
    "size_bucket",
    "statistics_fingerprint",
]
