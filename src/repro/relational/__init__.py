"""Relational storage and algebra substrate.

This subpackage implements the "database engine" the paper assumes as given:
relations with named attributes, hash and trie indexes whose intersections
run in time proportional to the smaller argument, the classical relational
algebra operators, and the statistics extraction (cardinalities and degrees)
needed to state degree constraints.
"""
