"""The persistent query-engine subsystem.

Everything in :mod:`repro.joins` is a one-shot function: it rebuilds every
index and re-derives every plan per call.  This subpackage turns those
building blocks into a long-lived engine — the architectural seam the
ROADMAP's production-scale ambitions (sharding, async serving,
multi-backend) plug into:

* :class:`Engine` (:mod:`repro.engine.session`) — the session object:
  ``stream`` / ``execute`` (the stream collected, iterating in delivered
  order) / ``execute_many`` (``execute`` in a loop) / ``explain`` over one
  owned :class:`~repro.relational.database.Database`;
* :class:`IndexRegistry` (:mod:`repro.engine.registry`) — version-checked
  trie/hash index reuse across queries;
* :class:`PlanCache` (:mod:`repro.engine.plan_cache`) — plans keyed on
  canonical query structure + statistics fingerprint;
* :mod:`repro.engine.cost` — the cost-based dispatcher over naive, binary,
  Generic-Join, Leapfrog, Yannakakis and hybrid heavy/light executors;
* :mod:`repro.engine.executors` — the common executor protocol (streaming
  result iteration with ``LIMIT`` pushdown);
* :mod:`repro.engine.fingerprint` — canonical query forms, so isomorphic
  queries share cached work.
"""

from repro.engine.cost import (
    AGGREGATE_MODES,
    BACKENDS,
    COLUMNAR_CAPABLE,
    MODES,
    RANKED_MODES,
    STRATEGIES,
    DispatchDecision,
    dispatch,
)
from repro.engine.executors import (
    EXECUTORS,
    executor_for,
    filtered_instance,
    head_projected,
)
from repro.engine.fingerprint import CanonicalQuery, canonical_query
from repro.engine.plan_cache import CachedPlan, LRUCache, PlanCache
from repro.engine.registry import IndexRegistry
from repro.engine.session import Engine, EngineStats, Explanation

__all__ = [
    "AGGREGATE_MODES",
    "BACKENDS",
    "COLUMNAR_CAPABLE",
    "MODES",
    "RANKED_MODES",
    "STRATEGIES",
    "DispatchDecision",
    "dispatch",
    "EXECUTORS",
    "filtered_instance",
    "executor_for",
    "head_projected",
    "CanonicalQuery",
    "canonical_query",
    "CachedPlan",
    "LRUCache",
    "PlanCache",
    "IndexRegistry",
    "Engine",
    "EngineStats",
    "Explanation",
]
