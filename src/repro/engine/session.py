"""The :class:`Engine` session: build once, query many times.

An :class:`Engine` owns a :class:`Database` plus every piece of derived
state a single-shot call throws away:

* a shape cache keyed on a query text's token sequence with its literals
  lifted out, so a text that differs from a seen one only in its
  constants binds them into a parsed template and a canonical shape
  instead of meeting the parser;
* an :class:`IndexRegistry` that builds tries/hash indexes once and reuses
  them across queries (invalidated automatically on data mutation);
* a :class:`PlanCache` keyed on canonical query structure + a statistics
  fingerprint, so repeated or isomorphic queries skip parsing, acyclicity
  testing, the AGM LP and variable ordering;
* a result cache keyed on exact query form + the versions of the relations
  it reads, serving repeated identical queries on unchanged data instantly;
* a cost-based dispatcher (:mod:`repro.engine.cost`) choosing among naive,
  binary-plan, Generic-Join, Leapfrog, Yannakakis and hybrid heavy/light
  executors behind the single ``execute(query, mode=...)`` API.

Queries arrive through one declarative surface
(:class:`~repro.query.builder.Query` / ``Q`` builder / datalog text /
classical :class:`ConjunctiveQuery`, all interchangeable): projection
heads, constants in atoms, comparison selections, semiring aggregates with
group-by, ORDER BY and LIMIT.  The executors handle the join with
selections pushed below it, projection deduplicated early, and — when the
plan says so — the aggregates folded inside the join itself
(``aggregate_mode``) or the results enumerated directly in rank order
(``ranked_mode="anyk"``); this module layers the remaining stream-folds,
drain-and-heap ordering (heap-based top-k under LIMIT) and result
materialization on the streams they return.

Execution streams wherever the algorithm allows: for the WCOJ and naive
strategies, ``stream()`` yields result tuples straight out of the join
recursion, and plain Yannakakis yields them from a root-down walk of its
annotated join tree once the bottom-up messages are passed;
``execute(..., limit=k)`` abandons the search after the k-th tuple, so
``LIMIT`` queries never pay for the full join (binary plans materialize
the joins below their root, then stream the root join; stream-folded
aggregate queries must drain first, while
in-recursion aggregate plans stream finalized group rows
group-at-a-time).  Ordered queries run in one of two *ranked modes*:
**any-k** plans (``ranked_mode="anyk"``) enumerate results in sort order
straight out of the join — the ranking-semiring frontier for the WCOJ
strategies, the annotated join tree for Yannakakis — so ``ORDER BY ...
LIMIT k`` stops after k results; **drain** plans enumerate the join and
heap-select the top-k, or, on the columnar backend, sort the joined
dictionary codes and decode only the top-k.  All yield the identical
ranked prefix (ties are broken by the full row).  ``execute`` is that
stream collected: its result relation iterates in the delivered order,
and ``execute_many`` is ``execute`` in a loop.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.engine.cost import (
    BACKENDS,
    COLUMNAR_CAPABLE,
    STRATEGIES,
    PlanAxes,
    dispatch,
)
from repro.engine.executors import (
    bound_scan,
    executor_for,
    payload_aggregate_mode,
    payload_order,
    payload_ranked_mode,
    unique_index_layouts,
)
from repro.engine.fingerprint import (
    CanonicalQuery,
    CanonicalShape,
    canonical_query,
    canonical_shape,
)
from repro.engine.plan_cache import CachedPlan, LRUCache, PlanCache
from repro.engine.registry import IndexRegistry
from repro.errors import QueryError, ReproError
from repro.joins.hybrid import partition_instance
from repro.joins.instrumentation import OperationCounter
from repro.joins.plan import split_selections
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ProfileReport, profile_query
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.query.builder import Query, sort_rows
from repro.query.parser import QueryTemplate, parse_template, text_shape
from repro.query.semiring import fold_aggregates
from repro.query.terms import pinned_constants
from repro.query.variable_order import level_layout
from repro.relational.database import AppliedDelta, Database
from repro.relational.relation import Relation
from repro.relational.statistics import size_bucket, statistics_fingerprint

#: Anything the engine accepts as a query (see ``Query.coerce``).
QueryLike = Any

#: One registry index: ``(stored relation, attribute layout)``.
_Layout = tuple[str, tuple[str, ...]]


@dataclass
class EngineStats:
    """Cumulative accounting of one engine session's cache behaviour.

    ``plan_hits``/``plan_misses`` count plan-cache lookups,
    ``result_hits``/``result_misses`` the result cache, and
    ``index_builds``/``index_reuses`` the index registry (a reuse is a
    registry hit, a build a miss).
    """

    queries: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    result_hits: int = 0
    result_misses: int = 0
    index_builds: int = 0
    index_reuses: int = 0
    invalidations: int = 0

    def as_dict(self) -> dict[str, int]:
        """All counters as a plain dictionary."""
        return asdict(self)

    def summary(self) -> str:
        """The hit/miss counters in one compact line (used by explain)."""
        return (f"plan {self.plan_hits} hit / {self.plan_misses} miss · "
                f"result {self.result_hits} hit / {self.result_misses} miss · "
                f"index {self.index_reuses} reused / {self.index_builds} built")

    def __str__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"EngineStats({parts})"


@dataclass(frozen=True, eq=False)  # identity hash: the dict field would
class Explanation:                 # make a generated __hash__ crash
    """What ``explain()`` reports: the plan, the bound, and the provenance.

    Attributes
    ----------
    query:
        The query, rendered as text.
    mode:
        The requested mode.
    strategy:
        The executor the dispatcher chose.
    acyclic:
        Whether the query hypergraph is alpha-acyclic.
    agm_log2:
        log2 of the AGM bound on the current statistics regime (from the
        plan-cache entry, i.e. computed when the plan was first optimized).
    costs:
        The dispatcher's predicted ms per candidate strategy — every one
        under ``mode="auto"``, the forced one otherwise (``inf`` =
        infeasible); bracketed entries are ``ops[strategy]`` and
        informational.
    variable_order:
        The WCOJ variable order (None for non-WCOJ strategies).
    projection:
        For a plain WCOJ enumeration of a strict projection, how the head
        is made distinct — ``"existential tail after C"`` (head-first
        order) or ``"head deduplicated by a seen-set"`` (guarded order;
        the ``order[head]`` / ``order[guarded]`` cost entries price the
        two); None otherwise.
    canonical_form:
        The plan-cache key's structural component (``== constant``
        selections are slots there: plans are shared across constants).
    parameters:
        The constants filling those slots, in slot order.
    plan_cache:
        ``"hit"`` or ``"miss"`` — whether planning work was skipped.
    result_cached:
        True when a current-version result for this exact query is cached.
    warm_indexes / cold_indexes:
        Registry index layouts this plan needs, split by whether they are
        already built for the current data versions.
    output_columns:
        The result schema (head variables then aggregate aliases).
    aggregates:
        Rendered aggregate heads (empty for non-aggregate queries).
    aggregate_mode:
        The resolved aggregate execution mode — ``"recursion"``
        (in-recursion semiring elimination / Yannakakis in-pass) or
        ``"fold"`` (drain-and-fold); None without aggregates.
    elimination:
        Per-variable elimination placement for in-recursion plans (which
        variables form the group prefix, which are folded away and at
        what depth), or a one-line description of the fold/in-pass
        placement.
    pushed_selections:
        Where each selection lands *below* the join (recursion depth for
        WCOJ, earliest covering atom for naive, filtered scan, then the
        first-covering pairwise join or Yannakakis walk depth).
    order_by / limit:
        Result-ordering and top-k controls carried by the query.
    ranked_mode:
        The resolved ranked execution mode for ordered queries —
        ``"anyk"`` (rank-ordered enumeration out of the join itself,
        stopping after LIMIT results) or ``"drain"`` (enumerate the join,
        heap-select the top-k, or on the columnar backend sort its
        dictionary codes); None without ORDER BY.
    hybrid_split:
        For hybrid plans, the heavy/light split report: the skew
        variable and threshold, then per-side key/tuple counts and the
        sub-strategy each side runs.  Empty for every other strategy.
    backend:
        The resolved execution backend — ``"python"`` (the reference
        oracle) or ``"columnar"`` (sorted NumPy layouts + batched
        seeks).  The ``backend[python]``/``backend[columnar]`` cost
        entries record the priced envelopes behind the choice.
    backend_fallback:
        When a non-default backend was requested but the plan resolved
        to python, the reason; None otherwise.
    session_stats:
        A snapshot of the engine's cache counters at explain time.
    analysis:
        With ``explain(..., analyze=True)``: the
        :class:`~repro.obs.profile.ProfileReport` joining every priced
        strategy's predicted envelope to the operations it actually
        performed (calibration ratios); None otherwise.
    """

    query: str
    mode: str
    strategy: str
    acyclic: bool
    agm_log2: float
    costs: dict[str, float]
    variable_order: tuple[str, ...] | None
    canonical_form: str
    plan_cache: str
    result_cached: bool
    warm_indexes: tuple[str, ...]
    cold_indexes: tuple[str, ...]
    output_columns: tuple[str, ...] = ()
    aggregates: tuple[str, ...] = ()
    aggregate_mode: str | None = None
    elimination: tuple[str, ...] = ()
    pushed_selections: tuple[str, ...] = ()
    order_by: tuple[str, ...] = ()
    limit: int | None = None
    ranked_mode: str | None = None
    hybrid_split: tuple[str, ...] = ()
    backend: str = "python"
    backend_fallback: str | None = None
    session_stats: dict[str, int] | None = None
    analysis: ProfileReport | None = None
    parameters: tuple[str, ...] = ()
    projection: str | None = None

    @property
    def agm_bound(self) -> float:
        """The AGM bound as a plain number."""
        if self.agm_log2 == float("-inf"):
            return 0.0
        try:
            return 2.0 ** self.agm_log2
        except OverflowError:  # pragma: no cover - astronomically large bounds
            return float("inf")

    def render(self) -> str:
        """A human-readable multi-line report (used by the CLI)."""
        backend_line = f"backend:        {self.backend}"
        if self.backend == "columnar":
            backend_line += " (sorted NumPy layouts, galloping intersection)"
        elif self.backend_fallback is not None:
            backend_line += f" (fell back: {self.backend_fallback})"
        lines = [
            f"query:          {self.query}",
            f"strategy:       {self.strategy} (mode={self.mode})",
            backend_line,
            f"acyclic:        {self.acyclic}",
            f"AGM bound:      {self.agm_bound:.6g} (log2 = {self.agm_log2:.4g})",
            "cost estimates: " + self._render_costs(),
        ]
        if self.variable_order is not None:
            lines.append(f"variable order: {' -> '.join(self.variable_order)}"
                         + (f" ({self.projection})" if self.projection
                            else ""))
        if self.output_columns:
            lines.append(f"output:         ({', '.join(self.output_columns)})")
        if self.aggregates:
            lines.append(f"aggregates:     {', '.join(self.aggregates)}"
                         + (f" [{self.aggregate_mode}]"
                            if self.aggregate_mode else ""))
        if self.elimination:
            lines.append("elimination:")
            lines.extend(f"    {entry}" for entry in self.elimination)
        if self.pushed_selections:
            lines.append("pushed below join:")
            lines.extend(f"    {entry}" for entry in self.pushed_selections)
        if self.order_by or self.limit is not None:
            order = ", ".join(self.order_by)
            pieces = []
            if order:
                pieces.append(f"ORDER BY {order}")
            if self.limit is not None:
                pieces.append(f"LIMIT {self.limit}")
            lines.append(f"order/limit:    {' '.join(pieces)}")
        if self.ranked_mode is not None:
            if self.ranked_mode == "anyk":
                detail = ("any-k: rank-ordered enumeration out of the join, "
                          "stops after LIMIT results")
            elif self.backend == "columnar" and not self.aggregates:
                detail = ("drain-and-sort: enumerate the join, sort its "
                          "dictionary codes, decode the top-k")
            else:
                detail = ("drain-and-heap: enumerate the join, "
                          "heap-select the top-k")
            lines.append(f"ranked mode:    {self.ranked_mode} ({detail})")
        if self.hybrid_split:
            lines.append("hybrid split:")
            lines.extend(f"    {entry}" for entry in self.hybrid_split)
        if self.parameters:
            lines.append("parameters:     " + ", ".join(
                f"?{i} = {value}" for i, value in enumerate(self.parameters))
                + " (cost estimates are those priced for the plan's "
                  "bound-scan size bucket)")
        lines.append(f"plan cache:     {self.plan_cache} "
                     f"[{self.canonical_form}]")
        lines.append(f"result cache:   "
                     f"{'warm' if self.result_cached else 'cold'}")
        if self.warm_indexes:
            lines.append("warm indexes:   " + ", ".join(self.warm_indexes))
        if self.cold_indexes:
            lines.append("cold indexes:   " + ", ".join(self.cold_indexes))
        if self.session_stats is not None:
            lines.append("session stats:  "
                         + EngineStats(**self.session_stats).summary())
        if self.analysis is not None:
            lines.append(self.analysis.render())
        return "\n".join(lines)

    def _render_costs(self) -> str:
        """Predicted ms per candidate on warm indexes — with ``analyze``,
        the measured ms and operation calibration beside the chosen one —
        then the informational entries (``ops[...]`` stay in the table)."""
        ran = (self.analysis.profile_for(self.strategy)
               if self.analysis is not None else None)
        pieces = []
        for name, cost in sorted(self.costs.items()):
            if name.startswith("ops["):
                continue
            piece = f"{name}={cost:.4g}" + ("" if "[" in name else " ms")
            if ran and name == self.strategy:
                piece += (f" (measured {ran.wall_ms:.4g} ms, calibration "
                          f"{ran.calibration or 0.0:.2f})")
            pieces.append(piece)
        return ", ".join(pieces)

    def __str__(self) -> str:
        return self.render()


@dataclass
class _Shape:
    """A shape-cache entry: the template every text of one shape binds,
    and its canonical shape once a query of the shape was canonicalized."""

    template: QueryTemplate
    canonical: CanonicalShape | None = None


@dataclass(frozen=True)
class _Prepared:
    """A query after planning: everything needed to run it."""

    query: Query
    canon: CanonicalQuery
    plan: CachedPlan
    payload: tuple | None  # plan payload in this query's vocabulary
    plan_provenance: str  # "hit" | "miss"


class Engine:
    """A persistent query-engine session over one database.

    Parameters
    ----------
    database:
        The catalog to serve queries against; a fresh empty one by default.
    relations:
        Convenience: relations to register into a fresh database (mutually
        exclusive with ``database``).
    plan_cache_size / result_cache_size:
        LRU capacities of the two caches; the shape cache in front of
        the parser holds as many shapes as the plan cache holds plans.
    cache_results:
        Whether to cache materialized results keyed on data versions.
        Streaming (`stream`) never consults the result cache mid-flight.
    tracer:
        A :class:`~repro.obs.trace.Tracer` to thread through the query
        lifecycle (parse → canonicalize → plan-cache lookup → pricing →
        index resolution → execution → delivery).  None (the default)
        installs the shared no-op tracer, whose per-stage cost is one
        no-op context-manager entry.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` to record cache
        outcomes, dispatch counts, execution-time and any-k delay
        histograms into.  None/True creates a fresh registry (the
        default); False disables metrics entirely; an explicit registry
        can be shared across engines (the future multi-tenant service).
    collect_operations:
        When True, every ``execute``/``stream`` call without an explicit
        ``counter`` allocates a fresh :class:`OperationCounter`, exposed
        as :attr:`last_operations` and fed into the operations metrics.
        Off by default: threading a counter through the join recursion
        costs real time on the hot path (see
        ``benchmarks/bench_trace_overhead.py``).
    """

    def __init__(self, database: Database | None = None,
                 relations: Iterable[Relation] = (),
                 plan_cache_size: int = 256,
                 result_cache_size: int = 128,
                 cache_results: bool = True,
                 tracer: Tracer | NullTracer | None = None,
                 metrics: MetricsRegistry | bool | None = None,
                 collect_operations: bool = False):
        if database is not None and tuple(relations):
            raise QueryError("pass either a database or relations, not both")
        self._db = database if database is not None else Database(relations)
        self._registry = IndexRegistry(self._db)
        self._plans = PlanCache(plan_cache_size)
        self._results = LRUCache(result_cache_size)
        self._cache_results = cache_results
        # Query texts by shape (see ``_prepare``), bounded like the plan
        # cache: a long-lived session fed distinct shapes must not grow
        # without limit.
        self._shapes: LRUCache = LRUCache(plan_cache_size)
        self.stats = EngineStats()
        self.tracer = tracer  # type: ignore[assignment]  # the setter maps None
        if metrics is False:
            self._metrics: MetricsRegistry | None = None
        elif metrics is None or metrics is True:
            self._metrics = MetricsRegistry()
        else:
            self._metrics = metrics
        self._collect = collect_operations
        #: The operation counter of the most recent execute/stream call:
        #: the per-call counter when one was threaded (explicitly or via
        #: ``collect_operations``), a fresh zeroed counter when a cached
        #: result was served (a cache hit performs no execution work),
        #: None when nothing was counted.
        self.last_operations: OperationCounter | None = None
        #: Standing queries (see :meth:`subscribe`): every catalog
        #: mutation is pushed into these after the caches are settled.
        self._subscriptions: list = []
        # Delta-sync marks for the registry's columnar layout counter
        # (mirrors the index build/reuse sync in _sync_index_stats).
        self._layout_builds_seen = 0
        # Per-strategy columnar executors, created on first columnar run
        # (a dict once populated; None keeps NumPy unimported until then).
        self._columnar_executor: dict[str, Any] | None = None
        if self._metrics is not None:
            self._declare_metrics()

    @property
    def tracer(self) -> Tracer | NullTracer:
        """The session's tracer, never None: assigning None installs the
        shared :data:`~repro.obs.trace.NULL_TRACER`."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Tracer | NullTracer | None) -> None:
        self._tracer = NULL_TRACER if tracer is None else tracer

    def _declare_metrics(self) -> None:
        """Declare the session's instruments once, keeping bound
        references so hot-path recording skips the registry lookup; the
        per-query series are bound to their labels here too."""
        m = self._metrics
        self._m_queries = m.counter(
            "repro_queries_total",
            "Queries served (execute/stream/batch)").labels()
        plan_lookups = m.counter(
            "repro_plan_cache_lookups_total",
            "Plan-cache lookups by outcome", ("outcome",))
        result_lookups = m.counter(
            "repro_result_cache_lookups_total",
            "Result-cache lookups by outcome", ("outcome",))
        self._m_plan_lookups = {outcome: plan_lookups.labels(outcome=outcome)
                                for outcome in ("hit", "miss")}
        self._m_result_lookups = {
            outcome: result_lookups.labels(outcome=outcome)
            for outcome in ("hit", "miss")}
        self._m_index_events = m.counter(
            "repro_index_events_total",
            "Index registry builds, reuses and invalidations", ("event",))
        self._m_index_builds = self._m_index_events.labels(event="build")
        self._m_index_reuses = self._m_index_events.labels(event="reuse")
        dispatched = m.counter(
            "repro_dispatch_total", "Executed plans by strategy",
            ("strategy",))
        self._m_dispatch = {strategy: dispatched.labels(strategy=strategy)
                            for strategy in STRATEGIES}
        backends = m.counter(
            "repro_backend_dispatch_total", "Executed plans by backend",
            ("backend",))
        self._m_backend = {backend: backends.labels(backend=backend)
                           for backend in BACKENDS}
        self._m_layout_builds = m.counter(
            "repro_columnar_layout_builds_total",
            "Columnar layout materializations (layout-cache misses)")
        self._m_exec_seconds = m.histogram(
            "repro_execution_seconds",
            "Wall-clock seconds of materializing query runs").labels()
        self._m_operations = m.counter(
            "repro_operations_total",
            "Executor operations by kind (counted runs only)", ("kind",))
        self._m_search_nodes = m.counter(
            "repro_search_nodes_total",
            "Search nodes by join variable (detail counters only)",
            ("variable",))
        self._m_calibration = m.histogram(
            "repro_dispatch_calibration_ratio",
            "Counted runs: actual / predicted operations of the plan run",
            ("strategy",), buckets=(0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0))
        self._m_regret = m.counter(
            "repro_dispatch_regret_ops",
            "Counted runs: operations beyond the cheapest candidate's "
            "prediction")
        self._m_anyk_first = m.histogram(
            "repro_anyk_first_row_seconds",
            "Any-k ranked enumeration: time to the first row")
        self._m_anyk_delay = m.histogram(
            "repro_anyk_delay_seconds",
            "Any-k ranked enumeration: delay between consecutive rows")
        self._m_plan_invalidations = m.counter(
            "repro_plan_cache_invalidations_total",
            "Plan invalidations by reason (stats-drift vs version-bump)",
            ("reason",))
        self._m_deltas = m.counter(
            "repro_deltas_applied_total",
            "Effective tuple deltas applied to the catalog", ("kind",))
        self._m_view_maint = m.counter(
            "repro_view_maintenance_total",
            "Standing-query maintenance steps by kind", ("kind",))
        self._m_view_seconds = m.histogram(
            "repro_view_maintenance_seconds",
            "Wall-clock seconds of standing-query maintenance steps")
        self._m_subscriptions = m.gauge(
            "repro_subscriptions_active", "Registered standing queries")
        self._m_plan_entries = m.gauge(
            "repro_plan_cache_entries", "Plan cache occupancy")
        self._m_result_entries = m.gauge(
            "repro_result_cache_entries", "Result cache occupancy")
        self._m_indexes = m.gauge(
            "repro_registry_indexes", "Registry indexes warm for the "
            "current data versions")
        self._m_layouts = m.gauge(
            "repro_columnar_layouts", "Columnar layouts warm for the "
            "current data versions and dictionary epoch")

    # ------------------------------------------------------------------
    # Catalog management
    # ------------------------------------------------------------------
    @property
    def database(self) -> Database:
        """The underlying catalog (mutate it via the engine's methods)."""
        return self._db

    @property
    def registry(self) -> IndexRegistry:
        """The index registry (exposed for inspection and prewarming)."""
        return self._registry

    @property
    def metrics(self) -> MetricsRegistry | None:
        """The session's metrics registry (None when disabled)."""
        return self._metrics

    def _refresh_gauges(self) -> None:
        self._m_plan_entries.set(len(self._plans))
        self._m_result_entries.set(len(self._results))
        self._m_indexes.set(self._registry.warm_count())
        self._m_layouts.set(self._registry.columnar_warm_count())
        self._m_subscriptions.set(
            sum(1 for sub in self._subscriptions if sub.active))

    def metrics_snapshot(self) -> dict[str, Any]:
        """A JSON-serializable snapshot of every metric (gauges current)."""
        if self._metrics is None:
            raise QueryError(
                "metrics are disabled for this engine "
                "(constructed with metrics=False)")
        self._refresh_gauges()
        return self._metrics.as_dict()

    def metrics_exposition(self) -> str:
        """The Prometheus text exposition (the future ``/metrics`` body)."""
        if self._metrics is None:
            raise QueryError(
                "metrics are disabled for this engine "
                "(constructed with metrics=False)")
        self._refresh_gauges()
        return self._metrics.exposition()

    def replace_relation(self, relation: Relation) -> None:
        """Rebind a name to a new relation, invalidating derived state.

        Standing queries reading the name treat this as an out-of-band
        *version bump*: no delta to propagate, so they re-plan and
        refresh (see :meth:`subscribe`).
        """
        self._db.replace(relation)
        self._invalidate_derived(relation.name)
        self._notify_version_bump(relation.name)

    def remove_relation(self, name: str) -> None:
        """Drop a relation from the catalog, invalidating derived state.

        Standing queries that read ``name`` are deactivated — they can no
        longer be evaluated — and record the drop as their final
        maintenance step.
        """
        self._db.remove(name)
        self._invalidate_derived(name)
        self._notify_version_bump(name)

    def insert(self, name: str, rows: Iterable[Sequence]) -> int:
        """Add tuples to a relation; returns how many were actually new.

        A convenience wrapper over :meth:`apply_delta` — inserts share
        its invalidation and subscription-maintenance path, and an
        idempotent load (nothing new) keeps warm indexes and results.
        """
        return len(self.apply_delta(name, inserts=rows).inserted)

    def apply_delta(self, name: str, inserts: Iterable[Sequence] = (),
                    deletes: Iterable[Sequence] = ()) -> AppliedDelta:
        """Apply a tuple-level delta batch and maintain derived state.

        The batch lands atomically in the catalog with exactly one
        version bump (:meth:`repro.relational.database.Database.apply_delta`),
        then — only when it actually changed something — indexes and
        cached results over ``name`` are invalidated and every standing
        query is offered the *effective* delta for incremental
        maintenance.  Returns the effective delta either way.

        A subscription that raises does not stop the others: each one
        is offered the delta, each one that raised drops its incremental
        state (its next delta refreshes it from the catalog), and the
        first error is re-raised after the loop.
        """
        applied = self._db.apply_delta(name, inserts, deletes)
        if not applied.changed:
            return applied
        self._invalidate_derived(name)
        if self._metrics is not None:
            if applied.inserted:
                self._m_deltas.inc(len(applied.inserted), kind="insert")
            if applied.deleted:
                self._m_deltas.inc(len(applied.deleted), kind="delete")
        first_error: Exception | None = None
        for sub in list(self._subscriptions):
            try:
                sub._on_delta(applied)
            except Exception as exc:  # re-raised below, after the others
                sub._drop_state()
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return applied

    def _invalidate_derived(self, name: str) -> None:
        """Drop indexes and cached results derived from ``name``."""
        dropped = self._registry.invalidate(name)
        self.stats.invalidations += dropped
        if self._metrics is not None and dropped:
            self._m_index_events.inc(dropped, event="invalidate")
        # Version-tagged keys already make old results unreachable; evict
        # them eagerly so dead materialized relations don't pin memory
        # until capacity eviction (mirrors the registry's eager policy).
        self._results.evict_where(
            lambda key: any(n == name for n, _ in key[1])
        )

    # ------------------------------------------------------------------
    # Standing queries
    # ------------------------------------------------------------------
    def subscribe(self, query: QueryLike, mode: str = "auto",
                  aggregate_mode: str = "auto", ranked_mode: str = "auto",
                  on_change: Callable | None = None,
                  replan_threshold: int = 1) -> Any:
        """Register a standing query; returns its live subscription.

        The query materializes once through the ordinary dispatch path,
        then stays current as :meth:`apply_delta` / :meth:`insert` /
        :meth:`replace_relation` / :meth:`remove_relation` mutate the
        catalog — incrementally through semiring delta propagation over
        the stored join-tree messages when the query shape allows it,
        by tracked full refresh otherwise (see
        :class:`repro.ivm.subscription.Subscription` for the fallback
        matrix).  ``on_change`` is called with the subscription after
        every maintenance step that changed the result;
        ``replan_threshold`` is the statistics-fingerprint drift (in
        power-of-two size buckets) that triggers automatic re-planning.
        """
        axes = PlanAxes(mode, aggregate_mode, ranked_mode)
        # Imported lazily: repro.ivm sits above the engine layer (it
        # re-enters execute/_prepare), so a module-level import would
        # be circular.
        from repro.ivm.subscription import Subscription  # lint: disable=import-layering -- ivm sits above the engine by design; subscribe() is the one upward seam and the import stays lazy to break the cycle

        sub = Subscription(self, query, axes, on_change=on_change,
                           replan_threshold=replan_threshold)
        self._subscriptions.append(sub)
        if self._metrics is not None:
            self._m_subscriptions.set(
                sum(1 for s in self._subscriptions if s.active))
        return sub

    def unsubscribe(self, subscription) -> bool:
        """Deregister a subscription; True when it was registered here."""
        try:
            self._subscriptions.remove(subscription)
        except ValueError:
            return False
        subscription._deactivate()
        if self._metrics is not None:
            self._m_subscriptions.set(
                sum(1 for s in self._subscriptions if s.active))
        return True

    @property
    def subscriptions(self) -> tuple:
        """The registered standing queries (including deactivated ones)."""
        return tuple(self._subscriptions)

    def _notify_version_bump(self, name: str) -> None:
        for sub in list(self._subscriptions):
            sub._on_version_bump(name)

    def _record_plan_invalidation(self, reason: str,
                                  canonical_form: str | None = None) -> None:
        """Count a plan invalidation and evict the stale entries.

        ``reason`` is ``"stats-drift"`` (fingerprint left the plan's size
        regime) or ``"version-bump"`` (out-of-band wholesale rebinding);
        with a ``canonical_form`` every cached plan for that query shape
        is evicted so the next preparation re-enters the dispatcher.
        """
        self._plans.record_invalidation(reason)
        if self._metrics is not None:
            self._m_plan_invalidations.inc(reason=reason)
        if canonical_form is not None:
            self._plans.evict_where(lambda key: key[0] == canonical_form)

    def _observe_maintenance(self, record) -> None:
        """Record one standing-query maintenance step in the metrics."""
        if self._metrics is None:
            return
        self._m_view_maint.inc(kind=record.kind)
        self._m_view_seconds.observe(record.seconds)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _prepare(self, query: QueryLike, axes: PlanAxes) -> _Prepared:
        tracer = self._tracer
        from_text = isinstance(query, str)
        shape: _Shape | None = None
        with tracer.span("parse", from_text=from_text) as span:
            if from_text:
                # A text whose shape was seen binds its literals into the
                # shape's template; only a new shape meets the parser.
                key, literals = text_shape(query)
                shape = self._shapes.get(key)
                if tracer.enabled:
                    span.set(shape="miss" if shape is None else "hit")
                if shape is None:
                    try:
                        shape = _Shape(parse_template(query))
                    except ReproError:
                        Query.coerce(query)  # raises the parser's own error
                        raise
                    self._shapes.put(key, shape)
                query = shape.template.bind(literals)
            else:
                query = Query.coerce(query)
        axes.check(query.aggregates, query.order_by)
        with tracer.span("canonicalize") as span:
            if shape is None:
                canon = canonical_query(query)
            else:
                if shape.canonical is None:
                    shape.canonical = canonical_shape(shape.template.query)
                canon = shape.canonical.bind(query.all_selections)
            span.set(form=canon.form)
        core = query.core
        # The op's one schema check: bound scans and index layouts read
        # relations by position, and executors handed registry tries do
        # not check again.
        core.validate_against(self._db)
        fingerprint = statistics_fingerprint(
            self._db,
            [core.atoms[i].relation for i in canon.atom_order],
        )
        if query.fixed_variables:
            # Parameterised plan: the constants leave the key, the size
            # buckets of the scans they bind (one index seek each) join
            # the fingerprint — a plan priced for a 2-row key is never
            # replayed for a 2000-row hub.
            pinned = pinned_constants(query.all_selections)
            scans = (bound_scan(core.atoms[i], pinned, self._db,
                                self._registry) for i in canon.atom_order)
            fingerprint += tuple(size_bucket(len(rows)) for rows in scans
                                 if rows is not None)
        # Every axis of the request keys the plan: one resolved under
        # "drain" must not serve an "anyk" request (the cached payload's
        # mode tag would disagree).
        key = (canon.plan_form, fingerprint, *axes)
        with tracer.span("plan_cache.lookup") as span:
            cached = self._plans.get(key)
            span.set(outcome="hit" if cached is not None else "miss")
        if cached is not None:
            self.stats.plan_hits += 1
            if self._metrics is not None:
                self._m_plan_lookups["hit"].inc()
            executor = executor_for(cached.strategy)
            payload = executor.payload_from_canonical(cached.payload, canon,
                                                      query)
            return _Prepared(query, canon, cached, payload, "hit")

        self.stats.plan_misses += 1
        if self._metrics is not None:
            self._m_plan_lookups["miss"].inc()
        with tracer.span("dispatch.price", mode=axes.mode) as span:
            decision = dispatch(core, self._db,
                                selections=query.all_selections,
                                aggregates=query.aggregates,
                                group=query.head_vars,
                                order_by=query.order_by,
                                limit=query.limit,
                                registry=self._registry, **asdict(axes))
            if tracer.enabled:
                span.set(strategy=decision.strategy,
                         backend=decision.backend,
                         costs={name: cost for name, cost
                                in decision.costs.items()
                                if cost != float("inf")})
        plan = CachedPlan(
            strategy=decision.strategy,
            payload=executor_for(decision.strategy).canonical_payload(
                decision.payload, canon),
            acyclic=decision.acyclic,
            agm_log2=decision.agm.log2_bound,
            costs=tuple(sorted(decision.costs.items())),
            backend=decision.backend,
            backend_fallback=decision.backend_fallback,
        )
        self._plans.put(key, plan)
        return _Prepared(query, canon, plan, decision.payload, "miss")

    def _result_key(self, prepared: _Prepared) -> tuple:
        # Versions are listed in canonical atom order (like the statistics
        # fingerprint) so atom-permuted isomorphic queries share the key.
        atoms = prepared.query.core.atoms
        versions = tuple(
            (atoms[i].relation, self._db.version(atoms[i].relation))
            for i in prepared.canon.atom_order
        )
        return (prepared.canon.form, versions)

    def _serve_cached(self, prepared: _Prepared, cached: Relation) -> Relation:
        """Adapt a cached result to this query's vocabulary.

        Isomorphic queries share result-cache entries (the key is the
        canonical form), so the cached schema may use another query's
        variable names or aggregate aliases; positions line up by
        construction, making a rename sufficient — and cheap, since renames
        share the tuple set and the delivered order.
        """
        columns = prepared.query.output_columns
        if tuple(cached.attributes) != columns:
            cached = cached.rename(dict(zip(cached.attributes, columns)),
                                   name=prepared.query.name)
        elif cached.name != prepared.query.name:
            cached = cached.with_name(prepared.query.name)
        return cached

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query: QueryLike, mode: str = "auto",
                limit: int | None = None,
                counter: OperationCounter | None = None,
                aggregate_mode: str = "auto",
                ranked_mode: str = "auto",
                backend: str = "python") -> Relation:
        """Evaluate a query and return its result relation: the rows
        :meth:`stream` yields, collected.

        The relation iterates its rows in the order the stream delivered
        them — an ordered query's in ORDER BY order, LIMIT taken after
        ordering — also when served from the result cache.  Equality,
        hashing, ``len`` and ``in`` are set-based, as for any relation.

        Parameters
        ----------
        query:
            A :class:`~repro.query.builder.Query`, a ``Q`` builder chain, a
            classical :class:`ConjunctiveQuery`, or datalog-style text
            (``"Q(A) :- R(A,B), S(B,5), A < B"``).
        mode:
            ``"auto"`` (cost-based dispatch) or a forced strategy name.
        aggregate_mode:
            How aggregate heads are evaluated: ``"auto"`` lets the
            dispatcher price in-recursion elimination against
            drain-and-fold per strategy, ``"recursion"`` forces the
            aggregation inside the join (in-recursion for the WCOJ
            strategies, in-pass for Yannakakis; restricting dispatch to
            strategies that support it), ``"fold"`` forces the
            join-then-fold route.  Only valid on aggregate queries.
        ranked_mode:
            How ordered (ORDER BY) results are produced: ``"auto"`` lets
            the dispatcher price any-k ranked enumeration against
            drain-and-heap per strategy (any-k wins when the query's
            LIMIT is small against the join envelope), ``"anyk"`` forces
            rank-ordered enumeration out of the join itself (WCOJ
            frontier / Yannakakis annotated join tree; restricting
            dispatch to strategies that support it; non-aggregate queries
            only), ``"drain"`` forces enumerate-then-select (a heap on
            python, a dictionary-code sort on columnar).  Both
            modes return the identical ranked prefix.  Only valid on
            ordered queries.
        limit:
            Stop after this many result tuples; pushed down into the join
            recursion for WCOJ strategies (under any-k plans the ranked
            stream is truncated *after* ordering, never before) and
            combined (min) with the query's own ``LIMIT``.  Passing a
            *per-call* limit always runs the executor (bypassing the
            result cache, whose key does not encode it), so the same call
            returns the same deterministic enumeration prefix whether or
            not the cache is warm; a LIMIT carried by the query itself is
            part of the cache key and its results are cached normally.
        counter:
            Optional operation counter threaded through to the executor.
            Passing a counter bypasses the result cache: a cached answer
            costs no operations, which would make instrumented runs record
            zero work and verify bounds vacuously.
        backend:
            Physical execution backend: ``"python"`` (the reference
            tuple-at-a-time path, the default), ``"columnar"`` (sorted
            NumPy layouts with batched ``searchsorted`` seeks; transparently
            falls back to python when a feature or value domain is
            unsupported), or ``"auto"`` (the dispatcher prices both and
            picks the cheaper).  The backend never changes results —
            only how fast they are produced.
        """
        axes = PlanAxes(mode, aggregate_mode, ranked_mode, backend)
        # The result key does not encode a per-call limit (a query's own
        # LIMIT is part of it), and a cached answer costs no operations:
        # a call with either one neither serves nor stores a result.
        cacheable = limit is None and counter is None and self._cache_results
        tracer = self._tracer
        with tracer.span("query", mode=mode) as span:
            prepared, limit, counter, cached = self._begin(
                query, axes, limit, counter, cacheable)
            if cached is not None:
                with tracer.span("deliver", result_cache="hit"):
                    result = self._serve_cached(prepared, cached)
            else:
                result = self._drain(prepared, limit, counter, cacheable)
            if tracer.enabled:
                span.set(query=str(prepared.query),
                         strategy=prepared.plan.strategy,
                         plan_cache=prepared.plan_provenance,
                         rows=len(result))
            return result

    def _begin(self, query: QueryLike, axes: PlanAxes, limit: int | None,
               counter: OperationCounter | None, cacheable: bool
               ) -> tuple[_Prepared, int | None, OperationCounter | None,
                          Relation | None]:
        """The prologue every run shares: plan the query and count it,
        then serve its cached result (``cacheable`` runs only) or pick
        the run's operation counter and warm the plan's indexes.

        Returns the prepared query, its effective limit, the run's
        counter and the cached result (None when the run goes ahead).
        """
        if limit is not None and limit < 0:
            raise QueryError(f"limit must be non-negative, got {limit}")
        prepared = self._prepare(query, axes)
        own = prepared.query.limit  # the query's own LIMIT: the smaller wins
        if own is not None:
            limit = own if limit is None else min(own, limit)
        self.stats.queries += 1
        metrics = self._metrics
        if metrics is not None:
            self._m_queries.inc()
        if cacheable:
            cached = self._results.get(self._result_key(prepared))
            if cached is not None:
                self.stats.result_hits += 1
                if metrics is not None:
                    self._m_result_lookups["hit"].inc()
                # A served cache entry performs no execution work: report
                # a fresh zeroed counter, never the populating run's
                # tallies.
                self.last_operations = OperationCounter()
                return prepared, limit, None, cached
            self.stats.result_misses += 1
            if metrics is not None:
                self._m_result_lookups["miss"].inc()
        if counter is None and self._collect:
            # Detail mode feeds the per-variable search-node metrics.
            counter = OperationCounter(detail=metrics is not None)
        self.last_operations = counter
        self._resolve_indexes(prepared)
        return prepared, limit, counter, None

    def _drain(self, prepared: _Prepared, limit: int | None,
               counter: OperationCounter | None,
               cacheable: bool) -> Relation:
        """Drain the run's stream into the result relation, which
        iterates in the order the stream delivered, and cache it."""
        tracer = self._tracer
        metrics = self._metrics
        start = time.perf_counter()
        with tracer.span("execute", strategy=prepared.plan.strategy) as span:
            rows = list(self._run(prepared, counter, limit))
            span.set(rows=len(rows))
            if counter is not None and tracer.enabled:
                span.set(operations=counter.as_dict())
        with tracer.span("deliver",
                         result_cache="store" if cacheable else "bypass"):
            result = Relation.ordered(prepared.query.name,
                                      prepared.query.output_columns, rows)
        if metrics is not None:
            self._m_exec_seconds.observe(time.perf_counter() - start)
            if counter is not None:
                self._record_operations(counter)
                self._record_calibration(prepared.plan, counter.total())
        if cacheable:
            self._results.put(self._result_key(prepared), result)
        return result

    def _record_operations(self, counter: OperationCounter) -> None:
        """Feed a finished run's counter into the operations metrics."""
        for kind in OperationCounter._KNOWN:
            amount = getattr(counter, kind)
            if amount:
                self._m_operations.inc(amount, kind=kind)
        for label, amount in counter.breakdown.items():
            if label.startswith("search_nodes[") and label.endswith("]"):
                self._m_search_nodes.inc(amount, variable=label[13:-1])

    def _record_calibration(self, plan: CachedPlan, actual: int) -> None:
        """A counted run against its plan's prediction and against the
        cheapest candidate's — a forced plan's only candidate is itself;
        a plan priced ``inf`` carries no prediction: nothing recorded."""
        predicted = {name[4:-1]: ops for name, ops in plan.costs
                     if name.startswith("ops[")}
        if predicted.get(plan.strategy):
            self._m_calibration.observe(actual / predicted[plan.strategy],
                                        strategy=plan.strategy)
            self._m_regret.inc(max(0, actual - round(min(predicted.values()))))

    def stream(self, query: QueryLike, mode: str = "auto",
               limit: int | None = None,
               counter: OperationCounter | None = None,
               aggregate_mode: str = "auto",
               ranked_mode: str = "auto",
               backend: str = "python") -> Iterator[tuple]:
        """Lazily enumerate result tuples (over the output columns).

        For the WCOJ and naive strategies, abandoning the iterator abandons
        the remaining join search, so consuming k tuples costs only the
        work of finding k tuples — for in-recursion aggregate plans the
        tuples are finalized group rows, which stream group-at-a-time out
        of the recursion, and for any-k ranked plans they are head rows
        in exact ORDER BY order, so consuming k ordered tuples never pays
        for the full join.  Plain Yannakakis streams its root-down walk
        after one annotated pass, and a binary plan materializes only the
        intermediates below its root, then streams the root join.
        Drain-ranked or stream-folded aggregate queries must drain the
        join first; ``limit`` then merely truncates the iteration (top-k
        for ordered queries — always applied *after* ordering).

        With ``collect_operations`` (or an explicit ``counter``),
        :attr:`last_operations` is the *live* counter of the returned
        stream: its tallies grow as the iterator is consumed.

        Under ``backend="columnar"`` the join is evaluated batch-at-a-time
        (the columnar kernels are vectorized, not tuple-at-a-time), so the
        returned iterator is over an already-computed buffer: identical
        tuples in identical order, but abandoning it early does not save
        join work.
        """
        axes = PlanAxes(mode, aggregate_mode, ranked_mode, backend)
        prepared, limit, counter, _ = self._begin(query, axes, limit,
                                                  counter, cacheable=False)
        return self._run(prepared, counter, limit)

    def execute_many(self, queries: Sequence[QueryLike],
                     mode: str = "auto", limit: int | None = None,
                     aggregate_mode: str = "auto",
                     ranked_mode: str = "auto",
                     backend: str = "python") -> list[Relation]:
        """Evaluate a batch: :meth:`execute` on each query in turn.

        The axes and the per-call ``limit`` apply to every query in the
        batch (so the batch must be all-aggregate, or all-ordered, to
        force an ``aggregate_mode`` or ``ranked_mode``).  Queries share
        plans, indexes and cached results the way any two calls on one
        session do: the registry builds each index once.
        """
        return [self.execute(query, mode, limit,
                             aggregate_mode=aggregate_mode,
                             ranked_mode=ranked_mode, backend=backend)
                for query in queries]

    def explain(self, query: QueryLike, mode: str = "auto",
                aggregate_mode: str = "auto",
                ranked_mode: str = "auto",
                backend: str = "python",
                analyze: bool = False) -> Explanation:
        """Plan the query (without executing) and report the evidence.

        Explaining warms the plan cache: a subsequent ``execute`` of the
        same query reports a plan-cache hit.  With ``analyze=True`` the
        query additionally *runs* under every priced strategy (see
        :meth:`profile`) and the resulting calibration report — the
        predicted envelope against actual operation counts per strategy —
        is attached as :attr:`Explanation.analysis`.
        """
        axes = PlanAxes(mode, aggregate_mode, ranked_mode, backend)
        prepared = self._prepare(query, axes)
        _columnar, layouts = self._index_layouts(prepared)
        indexes = [(f"{relation_name}[{','.join(layout)}]", warm)
                   for (relation_name, layout), warm in layouts.items()]
        result_cached = (self._cache_results
                         and self._result_key(prepared) in self._results)
        variable_order = (
            payload_order(prepared.payload)
            if prepared.plan.strategy in ("generic", "leapfrog") else None
        )
        spec = prepared.query
        resolved_mode = (payload_aggregate_mode(prepared.payload)
                         or ("fold" if spec.aggregates else None))
        resolved_ranked = (payload_ranked_mode(prepared.payload)
                           or ("drain" if spec.order_by else None))
        hybrid_split: tuple[str, ...] = ()
        if prepared.plan.strategy == "hybrid" and prepared.payload:
            _tag, skew_var, threshold, heavy_strat, light_strat = (
                prepared.payload)
            part = partition_instance(spec.core, self._db, skew_var,
                                      threshold)
            hybrid_split = (
                f"skew variable {skew_var}, degree threshold "
                f"{threshold:.4g} (sqrt of largest touched relation)",
                f"heavy side: {len(part.heavy_keys)} keys, "
                f"{part.heavy_total} tuples -> {heavy_strat}",
                f"light side: {part.light_total} tuples "
                f"(per-key degree <= {threshold:.4g}) -> {light_strat}",
            )
        explanation = Explanation(
            query=str(spec),
            mode=mode,
            strategy=prepared.plan.strategy,
            acyclic=prepared.plan.acyclic,
            agm_log2=prepared.plan.agm_log2,
            costs=prepared.plan.cost_dict(),
            variable_order=variable_order,
            projection=self._projection_form(prepared, variable_order),
            canonical_form=prepared.canon.plan_form,
            parameters=prepared.canon.parameters,
            plan_cache=prepared.plan_provenance,
            result_cached=result_cached,
            warm_indexes=tuple(label for label, warm in indexes if warm),
            cold_indexes=tuple(label for label, warm in indexes
                               if not warm),
            output_columns=spec.output_columns,
            aggregates=tuple(f"{a} AS {a.alias}" for a in spec.aggregates),
            aggregate_mode=resolved_mode,
            elimination=self._elimination_placement(prepared, resolved_mode),
            pushed_selections=self._selection_placement(prepared),
            order_by=tuple(f"{c} DESC" if d else c for c, d in spec.order_by),
            limit=spec.limit,
            ranked_mode=resolved_ranked,
            hybrid_split=hybrid_split,
            backend=prepared.plan.backend,
            backend_fallback=prepared.plan.backend_fallback,
            session_stats=self.stats.as_dict(),
        )
        if analyze:
            explanation = replace(
                explanation,
                analysis=profile_query(self, query, **asdict(axes)))
        return explanation

    def profile(self, query: QueryLike, mode: str = "auto",
                aggregate_mode: str = "auto",
                ranked_mode: str = "auto") -> ProfileReport:
        """Run the query under every priced strategy and calibrate the
        cost model: per strategy, the dispatcher's predicted envelope is
        joined to the operations the run actually performed (a fresh
        detail counter per run, bypassing the result cache), yielding a
        calibration ratio and a verdict on whether dispatch picked the
        empirically best strategy.  See
        :func:`repro.obs.profile.profile_query`.
        """
        axes = PlanAxes(mode, aggregate_mode, ranked_mode)
        return profile_query(self, query, **asdict(axes))

    @staticmethod
    def _projection_form(prepared: _Prepared,
                         order: tuple[str, ...] | None) -> str | None:
        """How a plain WCOJ enumeration makes a strict projection's head
        distinct — read from the order's level layout, as ``wcoj_stream``
        reads it — or None when nothing is projected away."""
        spec = prepared.query
        head = set(spec.head_vars)
        if (order is None or not head or spec.aggregates
                or payload_ranked_mode(prepared.payload) is not None
                or set(order) <= head | spec.fixed_variables):
            return None
        layout = level_layout(spec.core, order, spec.all_selections,
                              spec.head_vars)
        if layout.seen_set:
            return "head deduplicated by a seen-set"
        return f"existential tail after {order[layout.stop - 1]}"

    @staticmethod
    def _elimination_placement(prepared: _Prepared,
                               resolved_mode: str | None
                               ) -> tuple[str, ...]:
        """Where each variable is aggregated away, per strategy and mode."""
        spec = prepared.query
        if not spec.aggregates or resolved_mode is None:
            return ()
        strategy = prepared.plan.strategy
        kinds = ", ".join(sorted({a.kind.upper() for a in spec.aggregates}))
        if resolved_mode == "fold":
            return (f"all variables enumerated; {kinds} folded over the "
                    "streamed join output (stream-fold)",)
        if strategy in ("generic", "leapfrog"):
            order = payload_order(prepared.payload)
            group = set(spec.head_vars)
            layout = level_layout(spec.core, order, spec.all_selections,
                                  spec.head_vars, aggregate=True)
            start = layout.stop
            lines = []
            for depth in range(start):
                role = ("group-by" if order[depth] in group
                        else "constant-pinned")
                lines.append(f"{order[depth]} — {role} prefix "
                             f"(depth {depth})")
            # A plus-only (product-less) aggregate semiring keeps the
            # eliminator monolithic; reporting a component split it
            # cannot execute would misdescribe the plan.
            can_factorize = all(a.semiring().has_product
                                for a in spec.aggregates)
            components = ([tuple(order[d] for d in depths)
                           for depths in sorted(layout.components(start))]
                          if can_factorize and start < len(order) else [])
            component_of = {v: i for i, comp in enumerate(components)
                            for v in comp}
            for depth in range(start, len(order)):
                line = (f"{order[depth]} — eliminated in-recursion at depth "
                        f"{depth}, folded into {kinds}")
                if len(components) > 1:
                    line += (f" (component "
                             f"{component_of[order[depth]] + 1}"
                             f"/{len(components)})")
                lines.append(line)
            if len(components) > 1:
                rendered = "; ".join("{" + ", ".join(comp) + "}"
                                     for comp in components)
                lines.append(
                    f"tail factorizes into {len(components)} independent "
                    f"components ({rendered}); per-component memoized "
                    "folds combine with the semiring product"
                )
            if not lines:
                lines.append(f"no variables to eliminate; {kinds} folded "
                             "per full binding")
            return tuple(lines)
        if strategy == "yannakakis":
            non_group = [v for v in spec.core.variables
                         if v not in set(spec.head_vars)]
            return (
                f"{', '.join(non_group) or '(nothing)'} — aggregated away "
                f"during the join-tree passes (semiring product at joins, "
                f"{kinds} fold at projections)",
            )
        return ()

    def _selection_placement(self, prepared: _Prepared) -> tuple[str, ...]:
        """Where each selection lands below the join, per strategy: every
        executor pushes every predicate below or into the join."""
        spec = prepared.query
        if not spec.all_selections:
            return ()
        strategy = prepared.plan.strategy
        core = spec.core
        if strategy in ("generic", "leapfrog"):
            order = payload_order(prepared.payload)
            layout = level_layout(core, order, spec.all_selections)
            return tuple(
                f"{sel} — pruned at depth {depth} (variable {order[depth]}"
                f") of the join recursion"
                for sel, depth in zip(spec.all_selections, layout.fires_at)
            )
        if strategy == "naive":
            covered: set[str] = set()
            placements = []
            pending = list(spec.all_selections)
            for i, atom in enumerate(core.atoms):
                covered |= atom.variable_set
                for sel in list(pending):
                    if sel.variables <= covered:
                        placements.append(
                            f"{sel} — pruned at atom {i} ({atom})")
                        pending.remove(sel)
            return tuple(placements)
        per_atom, residual = split_selections(core, spec.all_selections)
        if strategy != "yannakakis":
            where = ("applied during the pairwise joins, at the first join "
                     "binding both sides")
        elif payload_ranked_mode(prepared.payload) == "anyk":
            where = "checked on each complete assignment of the ranked walk"
        elif payload_aggregate_mode(prepared.payload) == "recursion":
            where = "applied to the root's join in the pass, before grouping"
        else:
            where = ("fired during the join-tree walk, at the first depth "
                     "binding all its variables")

        def column(atom: Any, variable: str) -> str:
            stored = self._db.get(atom.relation).attributes
            return stored[atom.variables.index(variable)]

        return tuple(
            f"{sel} — index seek on "
            f"{core.atoms[i].relation}[{column(core.atoms[i], sel.lhs)}]"
            if sel.is_constant_equality else
            f"{sel} — filtered into the scan of {core.atoms[i].relation}"
            for i, sels in enumerate(per_atom) for sel in sels
        ) + tuple(f"{sel} — {where}" for sel in residual)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve_indexes(self, prepared: _Prepared) -> None:
        """Under tracing, warm the plan's indexes inside their own span
        before the run (executor.stream would otherwise resolve them
        invisibly, inside ``execute``).

        A columnar layout that cannot be built (an un-orderable mixed
        value domain) is left to the run, which falls back to the python
        oracle transparently, so warming must not fail first.
        """
        tracer = self._tracer
        if not tracer.enabled:
            return
        with tracer.span("index.resolve") as span:
            columnar, layouts = self._index_layouts(prepared)
            pairs = sorted(layouts)
            if not columnar:
                for relation_name, layout in pairs:
                    self._registry.trie(relation_name, layout)
            elif pairs:
                try:
                    self._registry.columnar_layouts(
                        [(pair, *pair) for pair in pairs])
                except TypeError:
                    pass
            span.set(indexes=len(layouts), warm=sum(layouts.values()))

    def _run(self, prepared: _Prepared, counter: OperationCounter | None,
             limit: int | None = None) -> Iterator[tuple]:
        """Stream output rows: join → aggregate fold → order → limit.

        In-recursion aggregate plans skip the fold stage entirely: the
        executor's stream already carries finalized group rows straight
        out of the join recursion (or Yannakakis' join-tree passes).
        Any-k ranked plans skip the sort stage the same way: the stream
        is already in ORDER BY order, so the (min-merged per-call/query)
        ``limit`` truncates it — ordering always happens before any
        limit is applied, whichever mode produced the ordering.  So do
        columnar drain plans without aggregates, whose executor ranks
        dictionary codes and returns the query's top-k already ordered.
        """
        spec = prepared.query
        executor = executor_for(prepared.plan.strategy)
        if self._runs_columnar(prepared):
            executor = self._columnar(prepared.plan.strategy)
        if self._metrics is not None:
            self._m_dispatch[prepared.plan.strategy].inc()
            self._m_backend[prepared.plan.backend].inc()
        rows = source = executor.stream(spec, self._db, prepared.payload,
                                        registry=self._registry,
                                        counter=counter)
        self._sync_index_stats()
        if spec.aggregates and not executor.handles_aggregation(
                spec, prepared.payload):
            rows = fold_aggregates(rows, spec.core.variables,
                                   spec.head_vars, spec.aggregates)
        if spec.order_by and not executor.handles_ordering(
                spec, prepared.payload):
            rows = iter(sort_rows(rows, spec.output_columns, spec.order_by,
                                  limit=limit))
        elif (self._metrics is not None
              and payload_ranked_mode(prepared.payload) == "anyk"):
            rows = self._observe_anyk_delays(rows)
        return self._closing(rows, limit, source)

    @staticmethod
    def _closing(rows: Iterator[tuple], limit: int | None,
                 source: Iterator[tuple]) -> Iterator[tuple]:
        """``rows`` up to ``limit``, as a generator whose ``close()`` —
        or its end — also closes the executor's ``source``: an abandoned
        stream releases the executor's state (an any-k frontier, a
        suspended recursion) at once, whichever branch of :meth:`_run`
        built it."""
        taken = rows if limit is None else itertools.islice(rows, limit)
        try:
            yield from taken
        finally:
            close = getattr(source, "close", None)
            if close is not None:
                close()

    def _observe_anyk_delays(self, rows: Iterator[tuple]) -> Iterator[tuple]:
        """Pass an any-k ranked stream through, feeding the delay
        histograms: time to the first row, then each inter-row gap —
        the measurable face of the any-k delay guarantees."""
        previous = time.perf_counter()
        first = True
        for row in rows:
            now = time.perf_counter()
            if first:
                self._m_anyk_first.observe(now - previous)
                first = False
            else:
                self._m_anyk_delay.observe(now - previous)
            previous = now
            yield row

    @staticmethod
    def _runs_columnar(prepared: _Prepared) -> bool:
        """True when this plan executes on the columnar backend."""
        return (prepared.plan.backend == "columnar"
                and prepared.plan.strategy in COLUMNAR_CAPABLE)

    def _index_layouts(self, prepared: _Prepared
                       ) -> tuple[bool, dict[_Layout, bool]]:
        """The registry indexes a prepared plan reads, each with whether
        it is already warm: ``(columnar, {(relation, layout): warm})``.

        ``columnar`` says which cache they live in — sorted columnar
        layouts when the plan runs on that backend, tries otherwise.
        Self-join atoms can request the same physical index; it is built
        once, so it is listed once (in first-request order).
        """
        columnar = self._runs_columnar(prepared)
        is_warm = (self._registry.columnar_is_warm if columnar
                   else self._registry.is_warm)
        layouts = unique_index_layouts(
            executor_for(prepared.plan.strategy), prepared.query, self._db,
            prepared.payload)
        return columnar, {pair: is_warm(*pair) for pair in layouts}

    def _columnar(self, strategy: str) -> Any:
        """The session's columnar executor for one strategy (lazy).

        One instance per strategy: each carries that strategy's python
        executor as its fallback oracle, so a run-time fallback is the
        exact run the python backend would have produced.
        """
        if self._columnar_executor is None:
            self._columnar_executor = {}
        executor = self._columnar_executor.get(strategy)
        if executor is None:
            from repro.columnar.executor import ColumnarExecutor
            executor = ColumnarExecutor(oracle=executor_for(strategy))
            self._columnar_executor[strategy] = executor
        return executor

    def _sync_index_stats(self) -> None:
        if self._metrics is not None:
            built = self._registry.builds - self.stats.index_builds
            reused = self._registry.reuses - self.stats.index_reuses
            if built:
                self._m_index_builds.inc(built)
            if reused:
                self._m_index_reuses.inc(reused)
            layout_built = (self._registry.layout_builds
                            - self._layout_builds_seen)
            if layout_built:
                self._m_layout_builds.inc(layout_built)
        self.stats.index_builds = self._registry.builds
        self.stats.index_reuses = self._registry.reuses
        self._layout_builds_seen = self._registry.layout_builds

    def clear_caches(self) -> None:
        """Drop plan and result caches and all registry indexes."""
        self._plans.clear()
        self._results.clear()
        dropped = self._registry.invalidate()
        self.stats.invalidations += dropped
        if self._metrics is not None and dropped:
            self._m_index_events.inc(dropped, event="invalidate")
        self._shapes.clear()

    def __repr__(self) -> str:
        return (f"Engine({len(self._db)} relations, "
                f"{len(self._plans)} cached plans, "
                f"{len(self._results)} cached results, "
                f"{len(self._registry)} indexes)")
