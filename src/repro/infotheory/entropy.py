"""Entropy of discrete distributions and entropy functions of relations.

The key construction behind every bound in the paper (Section 2 and
Section 4.2) is: pick a tuple *uniformly at random from the query output*
Q(D); the entropy function H of that distribution satisfies

* H[[n]] = log2 |Q(D)|                      (uniformity), and
* H[Y | X] <= log2 N_{Y|X}                  for every degree constraint
                                            guarded by an input relation.

This module computes exact empirical entropy functions (all marginals) of
finite distributions and of the uniform distribution over a relation, so
those steps of the argument can be *checked numerically* in tests and
experiments rather than taken on faith.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from repro.errors import NotEntropicError
from repro.infotheory.set_functions import SetFunction, all_subsets
from repro.relational.relation import Relation


def entropy_of_distribution(probabilities: Iterable[float]) -> float:
    """Shannon entropy (base 2) of a probability vector.

    Zero-probability entries are allowed and contribute nothing; the vector
    must sum to 1 within a small tolerance.
    """
    probs = [p for p in probabilities]
    total = sum(probs)
    if any(p < -1e-12 for p in probs):
        raise NotEntropicError("negative probability")
    if abs(total - 1.0) > 1e-6:
        raise NotEntropicError(f"probabilities sum to {total}, expected 1")
    return -sum(p * math.log2(p) for p in probs if p > 0)


def _marginal(distribution: Mapping[tuple, float], variables: Sequence[str],
              subset: frozenset[str]) -> dict[tuple, float]:
    positions = [i for i, v in enumerate(variables) if v in subset]
    marginal: dict[tuple, float] = {}
    for outcome, p in distribution.items():
        key = tuple(outcome[i] for i in positions)
        marginal[key] = marginal.get(key, 0.0) + p
    return marginal


def entropy_function_of_distribution(variables: Sequence[str],
                                     distribution: Mapping[tuple, float]
                                     ) -> SetFunction:
    """The entropy function H : 2^V -> R_+ of a joint distribution.

    Parameters
    ----------
    variables:
        Variable names; the i-th component of every outcome tuple is the
        value of ``variables[i]``.
    distribution:
        Mapping from outcome tuples to probabilities (must sum to 1).

    Returns
    -------
    SetFunction
        H[S] = entropy of the marginal distribution on S, for every S.
        The result is entropic by construction, hence a polymatroid.
    """
    variables = tuple(variables)
    for outcome in distribution:
        if len(outcome) != len(variables):
            raise NotEntropicError(
                f"outcome {outcome!r} has arity {len(outcome)}, expected {len(variables)}"
            )
    values = {}
    for subset in all_subsets(variables):
        if not subset:
            values[subset] = 0.0
            continue
        marginal = _marginal(distribution, variables, subset)
        values[subset] = entropy_of_distribution(marginal.values())
    return SetFunction(variables, values)


def entropy_function_of_relation(relation: Relation,
                                 variables: Sequence[str] | None = None
                                 ) -> SetFunction:
    """Entropy function of the *uniform* distribution over a relation's tuples.

    This is exactly the distribution used in the entropy argument: each tuple
    of ``relation`` gets probability 1/|relation|.  The value on the full
    variable set therefore equals log2 |relation|.

    Parameters
    ----------
    relation:
        A non-empty relation.
    variables:
        Names to use for the relation's columns (defaults to the relation's
        own attribute names).
    """
    if len(relation) == 0:
        raise NotEntropicError("cannot build the entropy function of an empty relation")
    names = tuple(variables) if variables is not None else relation.attributes
    if len(names) != relation.arity:
        raise NotEntropicError(
            f"{len(names)} variable names given for a relation of arity {relation.arity}"
        )
    p = 1.0 / len(relation)
    distribution = {t: p for t in relation}
    return entropy_function_of_distribution(names, distribution)


def support_size(relation: Relation, attributes: Sequence[str]) -> int:
    """|supp_F(D)|: the number of distinct projections onto ``attributes``."""
    return len(relation.columns(attributes))


def verify_support_bound(relation: Relation) -> bool:
    """Numerically verify inequality (31): H[X] <= log2 |supp_X| for every X,
    for the uniform distribution over ``relation``.

    Returns True when the inequality holds for all subsets (it always should;
    this function exists so tests exercise the textbook fact directly).
    """
    h = entropy_function_of_relation(relation)
    for subset in all_subsets(relation.attributes):
        if not subset:
            continue
        support = support_size(relation, tuple(subset))
        if h(subset) > math.log2(support) + 1e-9:
            return False
    return True
