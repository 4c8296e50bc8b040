"""The plan cache: skip parsing, ordering and LP work for repeated queries.

Planning a query involves hypergraph construction, acyclicity testing, the
AGM fractional-edge-cover LP, cost estimation and variable ordering — work
that is identical for every repetition of a query (and for every variable
renaming of it) as long as the data statistics stay in the same regime.

Entries are keyed on ``(plan_form, statistics fingerprint, *axes)``:

* the *canonical form* (:mod:`repro.engine.fingerprint`, its ``plan_form``:
  ``== constant`` selections are slots) makes isomorphic queries, and
  queries differing only in their constants, share entries — plans are
  stored in canonical variable names and translated on the way out;
* the *statistics fingerprint* (power-of-two size buckets per canonical
  atom, then per constant-bound scan) keeps a plan live across small data
  drift while any order-of-magnitude change forces re-optimization;
* the *axes* are the request's :class:`~repro.engine.cost.PlanAxes` record
  (``mode``, ``aggregate_mode``, ``ranked_mode``, ``backend``) itself, so
  a plan resolved under one request never serves a different one.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable


@dataclass(frozen=True)
class CachedPlan:
    """An executor decision stored in canonical vocabulary.

    Attributes
    ----------
    strategy:
        Executor name (``"naive"``, ``"binary"``, ``"generic"``,
        ``"leapfrog"``, ``"yannakakis"``, ``"hybrid"``).
    payload:
        Strategy-specific plan payload, expressed canonically: a tuple of
        canonical variable names for plain WCOJ orders; a ``(mode tag,
        order)`` pair for aggregate (``"recursion"`` / ``"fold"``) and
        any-k (``"anyk"``) plans, the order empty for Yannakakis; a tuple
        of canonical atom positions for binary join orders;
        ``("hybrid", skew variable, threshold, heavy strategy, light
        strategy)`` for hybrid plans; None for naive and plain
        Yannakakis.
    acyclic:
        Whether the query hypergraph is alpha-acyclic.
    agm_log2:
        log2 of the AGM bound computed at planning time.
    costs:
        The dispatcher's cost estimates per strategy (sorted tuple of
        ``(strategy, cost)`` pairs so the record stays hashable).
    backend:
        The resolved execution backend (``"python"`` / ``"columnar"``).
    backend_fallback:
        Why a requested non-default backend resolved to python (None when
        honored or never requested).
    """

    strategy: str
    payload: tuple | None
    acyclic: bool
    agm_log2: float
    costs: tuple[tuple[str, float], ...]
    backend: str = "python"
    backend_fallback: str | None = None

    def cost_dict(self) -> dict[str, float]:
        """The cost estimates as a plain dictionary."""
        return dict(self.costs)


class LRUCache:
    """A small least-recently-used cache."""

    def __init__(self, max_size: int = 256):
        if max_size < 1:
            raise ValueError(f"cache size must be positive, got {max_size}")
        self._max_size = max_size
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def get(self, key: Hashable) -> Any | None:
        """The cached value, refreshed as most-recent, or None."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return self._entries[key]
        return None

    def put(self, key: Hashable, value: Any) -> None:
        """Insert a value, evicting the least-recently-used entry if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self._max_size:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def evict_where(self, predicate) -> int:
        """Drop entries whose key satisfies ``predicate``; returns the count.

        Lets owners free entries that version-tagged keys have already made
        unreachable, instead of waiting for capacity eviction.
        """
        stale = [key for key in self._entries if predicate(key)]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries


class PlanCache(LRUCache):
    """An :class:`LRUCache` specialized to :class:`CachedPlan` values.

    Beyond plain LRU bookkeeping it records *invalidations by reason*:
    when a standing query decides its plan no longer fits (the statistics
    fingerprint drifted past its threshold, or an out-of-band version
    bump replaced the data wholesale) the owner calls
    :meth:`record_invalidation` so the re-plan shows up in the engine's
    stats and the metrics snapshot instead of looking like an ordinary
    miss.
    """

    def __init__(self, max_size: int = 256):
        super().__init__(max_size)
        self.invalidations: dict[str, int] = {}

    def get(self, key: Hashable) -> CachedPlan | None:
        return super().get(key)

    def put(self, key: Hashable, value: CachedPlan) -> None:
        super().put(key, value)

    def record_invalidation(self, reason: str) -> None:
        """Count one plan invalidation under ``reason``."""
        self.invalidations[reason] = self.invalidations.get(reason, 0) + 1

    def invalidation_counts(self) -> dict[str, int]:
        """Invalidations by reason (a copy, for snapshots)."""
        return dict(self.invalidations)
