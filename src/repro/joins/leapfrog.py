"""Leapfrog Triejoin (Veldhuizen 2014).

Leapfrog Triejoin is the trie-based, sort-merge-flavoured WCOJ algorithm that
LogicBlox ships as its work-horse join (Section 1.2 of the paper).  Each
relation is stored as a trie whose levels follow a single global variable
order; at every variable the per-relation sorted value lists are intersected
with the *leapfrog* procedure, which repeatedly seeks each iterator to the
current maximum key.  The number of seeks is O(min size * log(max/min)),
satisfying the O~(min size) intersection requirement and hence the AGM
runtime bound.

Like :mod:`repro.joins.generic_join`, the algorithm is exposed both as a
lazy generator (:func:`leapfrog_stream`, used by the engine for ``LIMIT``
pushdown) and as the batch API (:func:`leapfrog_triejoin`), and both accept
prebuilt tries so index construction can be amortized across queries.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Mapping, Sequence

from repro.joins.generic_join import wcoj_stream
from repro.joins.instrumentation import OperationCounter
from repro.query.atoms import ConjunctiveQuery
from repro.query.semiring import Aggregate
from repro.relational.database import Database
from repro.relational.index import TrieIndex, TrieNode
from repro.relational.relation import Relation


class LeapfrogIterator:
    """A linear iterator over one sorted value list with a seek operation."""

    __slots__ = ("keys", "position")

    def __init__(self, keys: Sequence[Any]):
        self.keys = keys
        self.position = 0

    def at_end(self) -> bool:
        """True when the iterator has run off the end of its list."""
        return self.position >= len(self.keys)

    def key(self) -> Any:
        """The current key (undefined when at end)."""
        return self.keys[self.position]

    def next(self) -> None:
        """Advance to the next key."""
        self.position += 1

    def seek(self, target: Any) -> None:
        """Advance to the least key >= ``target`` (galloping via bisect)."""
        self.position = bisect.bisect_left(self.keys, target, self.position)


def leapfrog_intersect(sorted_lists: Sequence[Sequence[Any]],
                       counter: OperationCounter | None = None) -> list[Any]:
    """Intersect several sorted duplicate-free lists with the leapfrog scheme.

    Returns the sorted intersection.  Every ``seek`` and output element is
    charged to ``counter``.
    """
    if not sorted_lists:
        return []
    if any(len(lst) == 0 for lst in sorted_lists):
        return []
    if len(sorted_lists) == 1:
        return list(sorted_lists[0])

    iterators = [LeapfrogIterator(lst) for lst in sorted_lists]
    iterators.sort(key=lambda it: it.key())
    result: list[Any] = []
    k = len(iterators)
    p = 0
    max_key = iterators[-1].key()
    while True:
        it = iterators[p]
        if counter is not None:
            counter.charge(seeks=1)
        key = it.key()
        if key == max_key:
            # All iterators agree on this key.
            result.append(key)
            it.next()
            if it.at_end():
                break
            max_key = it.key()
            p = (p + 1) % k
        else:
            it.seek(max_key)
            if it.at_end():
                break
            max_key = it.key()
            p = (p + 1) % k
    return result


def _leapfrog_nodes(nodes: Sequence[TrieNode],
                    counter: OperationCounter | None = None) -> list[Any]:
    """The leapfrog probe policy over the nodes ``wcoj_stream`` holds."""
    return leapfrog_intersect([node.sorted_keys for node in nodes], counter)


def leapfrog_stream(query: ConjunctiveQuery, database: Database,
                    order: Sequence[str] | None = None,
                    counter: OperationCounter | None = None,
                    tries: Mapping[str, TrieIndex] | None = None,
                    selections: Sequence = (),
                    head: Sequence[str] | None = None,
                    aggregates: Sequence[Aggregate] | None = None,
                    ranked: Sequence[tuple[str, bool]] | None = None,
                    factorize: bool = True,
                    ) -> Iterator[tuple]:
    """Lazily enumerate the full join with Leapfrog Triejoin.

    Parameters are identical to
    :func:`repro.joins.generic_join.generic_join_stream` (including
    binding-level ``selections`` pushdown, early-deduplicating ``head``
    projection, in-recursion semiring ``aggregates`` with
    component-``factorize``d elimination, any-k ``ranked``
    enumeration, and per-variable search-node attribution under a
    ``counter`` with ``detail`` set); the difference is purely in the
    probe policy over the same trie nodes (leapfrog seeks in their
    ``sorted_keys`` instead of hash probes of their ``children``), which
    is the design-choice ablation benchmarked in
    ``benchmarks/bench_intersection.py``.  Both share the
    variable-at-a-time recursion of
    :func:`repro.joins.generic_join.wcoj_stream`.
    """
    return wcoj_stream(query, database, _leapfrog_nodes,
                       order=order, counter=counter, tries=tries,
                       selections=selections, head=head,
                       aggregates=aggregates, ranked=ranked,
                       factorize=factorize)


def leapfrog_triejoin(query: ConjunctiveQuery, database: Database,
                      order: Sequence[str] | None = None,
                      counter: OperationCounter | None = None,
                      tries: Mapping[str, TrieIndex] | None = None) -> Relation:
    """Evaluate a full conjunctive query with Leapfrog Triejoin.

    Parameters are those of :func:`leapfrog_stream`; the stream is
    materialized into a :class:`Relation` over the query's head variables.
    """
    results = leapfrog_stream(query, database, order=order,
                              counter=counter, tries=tries)
    output = Relation(query.name, query.variables, results)
    if tuple(query.head) != tuple(query.variables):
        output = output.project(query.head, name=query.name)
    return output
