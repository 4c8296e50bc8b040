"""Component-factorized vs monolithic elimination on a skewed star group-by.

The in-recursion eliminator memoizes subtrees on their separator, but a
monolithic fold threads the aggregated variable through the separator of
every *other* tail component: for ``Q(A, SUM(B1)) :- R1(A,B1), R2(A,B2),
R3(A,B3)`` the memo key of the B2/B3 subtrees grows by B1 — conditionally
independent arms get re-folded once per B1 value, an ``N^{tail width}``
factor the FAQ bound does not charge.  Component factorization folds each
arm of the residual hypergraph independently and combines the values with
the semiring product, restoring the exact ``N^{max component width}``
bound; this benchmark gates the ratio of join search nodes between the
two.  Both folds are also checked for bit-identical grouped results, and
every engine strategy for agreement.

Run: ``python benchmarks/bench_faq_factorization.py [--quick]``
(flags, table and exit code are ``harness.py``'s).
"""

from __future__ import annotations

import random

from harness import Gate, Measurement, main, timed

from repro.engine import Engine
from repro.joins.generic_join import generic_join_stream
from repro.joins.instrumentation import OperationCounter
from repro.query.builder import Query
from repro.query.variable_order import aggregate_elimination_order
from repro.relational.database import Database
from repro.relational.relation import Relation

QUERY = "Q(A, SUM(B1) AS total, COUNT(*) AS n) :- R1(A,B1), R2(A,B2), R3(A,B3)"


def skewed_star_instance(groups: int, fanout: int = 30,
                         hub_fanout: int = 120) -> Database:
    """Three independent arms around A; group A=0 is a heavy hub.

    Monolithic elimination re-folds the B2 and B3 arms once per distinct
    B1 value of each group, so the hub's wide B1 arm multiplies into the
    other arms' work; the factorized fold pays each arm once per group.
    """
    rng = random.Random(groups)
    relations = []
    for i, column in enumerate(("b1", "b2", "b3")):
        rows = {(0, rng.randrange(4 * hub_fanout)) for _ in range(hub_fanout)}
        rows |= {(a, rng.randrange(4 * fanout))
                 for a in range(1, groups) for _ in range(fanout)}
        relations.append(Relation(f"R{i + 1}", ("a", column), rows))
    return Database(relations)


def measure(groups: int) -> Measurement:
    """Search nodes of monolithic over factorized; asserts agreement."""
    database = skewed_star_instance(groups)
    spec = Query.coerce(QUERY)
    order = aggregate_elimination_order(spec.core, group=spec.head_vars)

    def fold(counter: OperationCounter, **kwargs) -> list[tuple]:
        return sorted(generic_join_stream(
            spec.core, database, order=order, head=spec.head_vars,
            aggregates=spec.aggregates, counter=counter, **kwargs))

    factorized_counter = OperationCounter()
    factorized, factorized_ms = timed(fold, factorized_counter)
    monolithic_counter = OperationCounter()
    monolithic, monolithic_ms = timed(fold, monolithic_counter,
                                      factorize=False)

    if factorized != monolithic:
        raise AssertionError("factorized and monolithic folds disagree")
    engine = Engine(database=database, cache_results=False)
    for mode in ("generic", "leapfrog", "yannakakis", "binary", "naive"):
        other = engine.execute(QUERY, mode=mode)
        if sorted(other.tuples) != factorized:
            raise AssertionError(f"{mode} disagrees on {QUERY}")

    return Measurement(monolithic_counter.search_nodes,
                       factorized_counter.search_nodes,
                       ms={"factorized": factorized_ms,
                           "monolithic": monolithic_ms})


GATE = Gate(
    name="faq_factorization",
    measure=measure,
    numerator="monolithic", denominator="factorized",
    quantity="search nodes",
    target=10.0,
    cases=({"groups": 25}, {"groups": 50}, {"groups": 100}),
    quick=({"groups": 20}, {"groups": 40}),
)

if __name__ == "__main__":
    raise SystemExit(main(GATE))
