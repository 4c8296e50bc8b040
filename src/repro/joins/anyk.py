"""Any-k ranked enumeration: one Lawler/REA frontier over staged choices.

*Optimal Join Algorithms Meet Top-k* (Tziavelis et al.) states any-k
once: each stage of a dynamic program offers choices, each choice
carries the best completion reachable below it, and a priority frontier
pops partial solutions in exact order, so the first k cost k pops' worth
of work.  :func:`anyk` is that loop.  Its stage builders are the WCOJ
key levels (:func:`repro.joins.generic_join.wcoj_stream`) and an
annotated join tree's root-down nodes
(:func:`repro.joins.yannakakis.yannakakis_ranked_stream`).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.joins.instrumentation import OperationCounter


def anyk(stages: int,
         candidates: Callable[[int, tuple], Sequence],
         priority: Callable[[int, tuple | None, Any], tuple | None],
         steps: Sequence[int | None],
         restore: Callable[[tuple], None],
         complete: Callable[[tuple], Iterable[tuple]],
         counter: OperationCounter | None = None) -> Iterator[tuple]:
    """Yield the rows of every complete prefix in priority order.

    A prefix is a tuple of choices, one per stage so far.

    * ``candidates(stage, prefix)`` lists the stage's choices under
      ``prefix`` (the frontier keeps the list as the sibling cursor);
    * ``priority(stage, base, choice)`` is the exact best full sort key
      reachable through ``prefix + (choice,)`` — ``base`` is the
      priority of the prefix being extended or of the popped sibling
      (None at stage 0) — or None when no completion exists;
    * ``steps[stage]`` is +1 or -1 when the stage's list is already in
      priority order (walked forward or backward): its choices enter
      the frontier one sibling at a time.  None pushes every candidate
      at once;
    * ``restore(prefix)`` runs first on every pop: it reinstates the
      builder's state for the popped prefix, and may charge the pop;
    * ``complete(prefix)`` returns the rows of a prefix covering every
      stage (possibly none).

    A pop pushes its successor first, then its extension, so heap ties
    break in push order.  Pops come in nondecreasing priority, so a tie
    class is whole once a strictly larger priority pops (or the frontier
    empties): its rows are then emitted in ascending order — the drain
    tie-break — and each charges ``tuples_emitted``.  Abandoning the
    iterator abandons the frontier.
    """
    heap: list = []
    tick = itertools.count()  # heap tiebreak; prefixes never compare

    def push(stage: int, prefix: tuple, base: tuple | None,
             choices: Sequence, index: int, step: int | None) -> None:
        """Walk ``choices`` from ``index`` by ``step`` and push those
        with a completion: at a lazy stage only the first, with the
        cursor its pop resumes from; at an eager one (``step`` None,
        walked forward) all of them."""
        while 0 <= index < len(choices):
            choice = choices[index]
            index += step or 1
            rank = priority(stage, base, choice)
            if rank is not None:
                heapq.heappush(heap, (
                    rank, next(tick), prefix + (choice,),
                    None if step is None else (choices, index, step)))
                if step is not None:
                    return

    def expand(stage: int, prefix: tuple, base: tuple | None) -> None:
        choices = candidates(stage, prefix)
        step = steps[stage]
        push(stage, prefix, base, choices,
             len(choices) - 1 if step == -1 else 0, step)

    def emit(rows: set[tuple]) -> Iterator[tuple]:
        for row in sorted(rows):
            if counter is not None:
                counter.charge(tuples_emitted=1)
            yield row

    expand(0, (), None)
    key: tuple | None = None
    pending: set[tuple] = set()  # the current tie class's rows
    while heap:
        rank, _tick, prefix, siblings = heapq.heappop(heap)
        restore(prefix)
        if pending and rank > key:
            yield from emit(pending)
            pending = set()
        key = rank
        if siblings is not None:
            # The popped choice's successor: every sibling after it
            # ranks no better, so it enters the frontier only now.
            push(len(prefix) - 1, prefix[:-1], rank, *siblings)
        if len(prefix) < stages:
            expand(len(prefix), prefix, rank)
        else:
            pending.update(complete(prefix))
    yield from emit(pending)
