"""Operation counters shared by every join engine.

Pure-Python wall-clock time is a noisy and unrepresentative proxy for the
asymptotic statements the paper makes, so every engine in this package also
reports *operation counts*: tuples scanned and emitted, hash inserts and
probes, sorted-intersection steps, trie seeks, and search-tree nodes.  The
benchmark harness uses these counts as its primary series (and
pytest-benchmark still records wall clock for the same runs).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class OperationCounter:
    """Mutable counters of the work a join algorithm performs.

    Attributes
    ----------
    tuples_scanned:
        Input tuples read (by scans, build phases, partitioning passes).
    tuples_emitted:
        Tuples produced, including intermediate results of binary plans.
    intermediate_tuples:
        Tuples materialized in intermediate relations (binary plans and
        PANDA); WCOJ engines that pipeline their output keep this at 0.
    hash_inserts / hash_probes:
        Hash-table operations.
    intersection_steps:
        Elements examined while intersecting candidate sets (the O(min size)
        work of Generic-Join / Algorithm 1 / Algorithm 3).
    seeks:
        Sorted-seek operations (Leapfrog Triejoin's galloping).
    search_nodes:
        Nodes expanded in a backtracking search tree.
    detail:
        When True, the algorithms additionally *attribute* work — per
        join variable, per Yannakakis phase — into :attr:`breakdown`.
        Off by default: attribution roughly doubles the bookkeeping on
        the hot recursion.
    breakdown:
        Labelled attributions (``search_nodes[A]``, ``messages
        .tuples_scanned``, ...).  Breakdown entries re-slice work already
        charged to the main counters, so they are excluded from
        :meth:`total` and :meth:`as_dict` — unlike :attr:`extra`, whose
        entries are *new* work.
    """

    tuples_scanned: int = 0
    tuples_emitted: int = 0
    intermediate_tuples: int = 0
    hash_inserts: int = 0
    hash_probes: int = 0
    intersection_steps: int = 0
    seeks: int = 0
    search_nodes: int = 0
    extra: dict[str, int] = field(default_factory=dict)
    detail: bool = False
    breakdown: dict[str, int] = field(default_factory=dict)

    _KNOWN = (
        "tuples_scanned",
        "tuples_emitted",
        "intermediate_tuples",
        "hash_inserts",
        "hash_probes",
        "intersection_steps",
        "seeks",
        "search_nodes",
    )

    def charge(self, **amounts: int) -> None:
        """Add the given amounts to the named counters.

        Unknown counter names accumulate in :attr:`extra`, so callers can
        introduce algorithm-specific counters without touching this class.
        """
        for name, amount in amounts.items():
            if name in self._KNOWN:
                setattr(self, name, getattr(self, name) + amount)
            else:
                self.extra[name] = self.extra.get(name, 0) + amount

    def attribute(self, label: str, amount: int = 1) -> None:
        """Re-slice already-charged work under a breakdown label.

        Unlike :meth:`charge`, this never affects :meth:`total` — the
        work was charged to a main counter at the same site.  Callers
        guard with :attr:`detail` so the disabled cost is one branch.
        """
        self.breakdown[label] = self.breakdown.get(label, 0) + amount

    def total(self) -> int:
        """Total work: the sum of every counter (including extras)."""
        return sum(getattr(self, name) for name in self._KNOWN) + sum(self.extra.values())

    def as_dict(self) -> dict[str, int]:
        """All counters as a plain dictionary."""
        result = {name: getattr(self, name) for name in self._KNOWN}
        result.update(self.extra)
        result["total"] = self.total()
        return result

    def reset(self) -> None:
        """Zero every counter (the ``detail`` flag is configuration and
        survives)."""
        for name in self._KNOWN:
            setattr(self, name, 0)
        self.extra.clear()
        self.breakdown.clear()

    def merge(self, other: "OperationCounter") -> None:
        """Add another counter's tallies (and breakdown) into this one."""
        for name in self._KNOWN:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value
        for key, value in other.breakdown.items():
            self.breakdown[key] = self.breakdown.get(key, 0) + value

    def __str__(self) -> str:
        parts = [f"{k}={v}" for k, v in self.as_dict().items() if v]
        return "OperationCounter(" + ", ".join(parts) + ")"


@contextmanager
def phase(counter: OperationCounter | None, label: str) -> Iterator[None]:
    """Attribute every counter delta inside the block to ``label``.

    Used for coarse per-phase breakdowns (Yannakakis' annotation scan,
    message pass, enumeration walk, frontier expansion): snapshot the known counters on
    entry, and on exit write each field's delta into the breakdown as
    ``{label}.{field}``.  A no-op unless ``counter.detail`` is set, so
    undetailed runs pay one branch per phase, not per operation.
    """
    if counter is None or not counter.detail:
        yield
        return
    before = [getattr(counter, name) for name in OperationCounter._KNOWN]
    try:
        yield
    finally:
        for name, start in zip(OperationCounter._KNOWN, before):
            delta = getattr(counter, name) - start
            if delta:
                counter.attribute(f"{label}.{name}", delta)
