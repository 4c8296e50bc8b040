"""PANDA: Shannon-flow inequalities, proof sequences, and their execution.

The PANDA algorithm (Abo Khamis–Ngo–Suciu, Section 5.2 of the paper) turns a
*mathematical proof* of a Shannon-flow inequality into a query-evaluation
algorithm: every step of the proof (decomposition, composition,
submodularity) becomes a relational operation (partition, join, re-affiliate).
This package implements

* conditional polymatroid terms and weighted term bags (:mod:`terms`),
* Shannon-flow inequalities, their validity check, and extraction of the
  coefficient vector delta from the bound LPs (:mod:`shannon_flow`),
* proof steps, proof sequences, their verifier, and a bounded-search
  automatic constructor (:mod:`proof_sequence`, :mod:`proof_search`),
* the data-level interpreter executing a proof sequence on a database
  (:mod:`interpreter`),
* the paper's Example 1 and Table 2, reproduced end to end (:mod:`example1`).
"""
