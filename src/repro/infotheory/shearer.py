"""Shearer's lemma and Friedgut's inequality, in checkable form.

Shearer's inequality (Corollary 5.5 in the paper): for a hypergraph
H = ([n], E) and non-negative weights delta = (delta_F),

    h([n]) <= sum_F delta_F * h(F)    for every polymatroid h
        <=>  delta is a fractional edge cover of H.

Friedgut's inequality (Theorem 4.1) is the weighted-sum generalisation whose
all-weights-equal-one specialisation is the AGM bound.  We provide a direct
numerical verifier for it on concrete relations and weight functions, used by
the property-based tests.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

from repro.infotheory.set_functions import SetFunction
from repro.infotheory.shannon import LinearEntropyExpression, is_shannon_valid
from repro.joins.generic_join import generic_join
from repro.query.atoms import ConjunctiveQuery
from repro.query.hypergraph import Hypergraph
from repro.relational.database import Database


def shearer_expression(hypergraph: Hypergraph,
                       weights: Mapping[str, float]) -> LinearEntropyExpression:
    """The expression ``sum_F delta_F h(F) - h(V)`` (>= 0 iff Shearer holds)."""
    coefficients: dict[frozenset[str], float] = {}
    for key, weight in weights.items():
        edge = hypergraph.edge(key)
        coefficients[edge] = coefficients.get(edge, 0.0) + weight
    full = frozenset(hypergraph.vertices)
    coefficients[full] = coefficients.get(full, 0.0) - 1.0
    return LinearEntropyExpression.from_dict(hypergraph.vertices, coefficients)


def shearer_holds_for(h: SetFunction, hypergraph: Hypergraph,
                      weights: Mapping[str, float], tolerance: float = 1e-9) -> bool:
    """Check Shearer's inequality for one concrete set function."""
    return shearer_expression(hypergraph, weights).evaluate(h) >= -tolerance


def shearer_is_valid(hypergraph: Hypergraph, weights: Mapping[str, float]) -> bool:
    """Decide whether ``h(V) <= sum_F delta_F h(F)`` holds for *all*
    polymatroids, via the Shannon-inequality prover.

    By Corollary 5.5 this is equivalent to ``weights`` being a fractional
    edge cover; the equivalence itself is exercised in tests.
    """
    for key, weight in weights.items():
        if weight < 0:
            return False
        hypergraph.edge(key)
    return is_shannon_valid(shearer_expression(hypergraph, weights))


def verify_friedgut_inequality(query: ConjunctiveQuery, database: Database,
                               cover: Mapping[str, float],
                               weight_functions: Mapping[
                                   str, Callable[[tuple], float]] | None = None,
                               tolerance: float = 1e-7) -> bool:
    """Numerically verify Friedgut's inequality (Theorem 4.1) on an instance.

    Parameters
    ----------
    query:
        A full conjunctive query.
    database:
        The database instance providing the relations R_F.
    cover:
        A fractional edge cover delta of the query hypergraph, keyed by the
        query's edge keys.
    weight_functions:
        Optional per-edge non-negative weight functions w_F mapping a tuple
        (in the *query-variable order of the atom*) to a weight.  Defaults to
        the constant-1 functions, which turns the statement into the AGM
        bound.

    Returns
    -------
    bool
        True when

        sum_{a in Q} prod_F [w_F(a_F)]^{delta_F}
            <= prod_F ( sum_{t in R_F} w_F(t) )^{delta_F}

        holds within a small relative tolerance.
    """
    hypergraph = query.hypergraph()
    if not hypergraph.is_cover(cover):
        raise ValueError("the supplied weights are not a fractional edge cover")

    bound_relations = query.bind(database)
    output = generic_join(query, database)

    def weight(edge_key: str, values: tuple) -> float:
        if weight_functions is None or edge_key not in weight_functions:
            return 1.0
        w = weight_functions[edge_key](values)
        if w < 0:
            raise ValueError(f"negative weight from weight function for {edge_key!r}")
        return w

    # Left-hand side: sum over output tuples of the product of weights.
    variables = query.variables
    lhs = 0.0
    for tup in output:
        product = 1.0
        for i, atom in enumerate(query.atoms):
            key = query.edge_key(i)
            delta = cover.get(key, 0.0)
            positions = [variables.index(v) for v in atom.variables]
            values = tuple(tup[p] for p in positions)
            w = weight(key, values)
            if w == 0.0:
                if delta > 0:
                    product = 0.0
                    break
                continue
            product *= w ** delta
        lhs += product

    # Right-hand side: product over edges of (sum of weights)^delta.
    rhs = 1.0
    for i, atom in enumerate(query.atoms):
        key = query.edge_key(i)
        delta = cover.get(key, 0.0)
        relation = bound_relations[key]
        total = sum(weight(key, t) for t in relation)
        if total == 0.0:
            if delta > 0:
                rhs = 0.0
                break
            continue
        rhs *= total ** delta

    return lhs <= rhs * (1 + tolerance) + tolerance


def agm_inequality_holds(query: ConjunctiveQuery, database: Database,
                         cover: Mapping[str, float], output_size: int,
                         tolerance: float = 1e-9) -> bool:
    """Check |Q(D)| <= prod_F |R_F|^{delta_F} for a given output size.

    The comparison is done in log-space for numerical robustness.
    """
    bound_relations = query.bind(database)
    log_bound = 0.0
    for key, delta in cover.items():
        size = len(bound_relations[key])
        if size == 0:
            return output_size == 0
        log_bound += delta * math.log2(size)
    if output_size == 0:
        return True
    return math.log2(output_size) <= log_bound + tolerance
