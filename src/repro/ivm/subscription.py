"""Standing queries: a subscription that keeps one result current.

A :class:`Subscription` pairs a query with an engine session.  It
materializes once through the engine's ordinary dispatch path, then keeps
the result relation current as the catalog changes — incrementally via the
:class:`~repro.ivm.view.ViewState` delta propagation whenever the query
shape allows it, by a *tracked full refresh* (re-execution with an
operation counter, so the cost is visible) whenever it does not.  The
fallback decision has two granularities:

* **structural** (:func:`incremental_decision`, fixed at subscribe time):
  cyclic hypergraphs, plus-only aggregate semirings, ``LIMIT`` without an
  ``ORDER BY`` (no deterministic row set to maintain) and any-k ranked
  plans (their output is a lazy enumeration, not a materialized state)
  never maintain incrementally;
* **per-delta** (reported by ``ViewState.apply`` returning None): a delta
  on a relation that several atoms read (the FAQ delta rule needs the
  query to be *linear* in the changed relation), or a delete under a
  non-invertible aggregate semiring (MIN/MAX — insert-only deltas still
  maintain), refreshes just that batch and keeps the state for future
  deltas.

Subscriptions also watch the *statistics fingerprint* their plan was
priced against: when :func:`repro.engine.fingerprint.fingerprint_drift`
reaches the configurable ``replan_threshold`` the subscription records a
``stats-drift`` plan invalidation, evicts the stale plan-cache entries and
re-plans through the dispatch path; out-of-band whole-relation rebinding
(``replace_relation`` / ``remove_relation``) does the same under the
``version-bump`` reason.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any, Callable

from repro.engine.cost import PlanAxes
from repro.engine.fingerprint import (canonical_query, fingerprint_drift,
                                      payload_ranked_mode)
from repro.errors import QueryError
from repro.ivm.view import ViewState
from repro.joins.instrumentation import OperationCounter
from repro.joins.yannakakis import join_tree_of
from repro.query.builder import Query, sort_rows
from repro.relational.relation import Relation
from repro.relational.statistics import statistics_fingerprint


@dataclass(frozen=True)
class MaintenanceRecord:
    """What one maintenance step did and what it cost.

    ``kind`` is ``"incremental"`` (delta propagation through the stored
    messages) or ``"refresh"`` (full re-execution through the dispatch
    path); ``reason`` says why that path ran; ``operations`` is the
    executor-operation total of the step (the number the IVM benchmark
    compares against cold re-execution); ``replanned`` marks steps that
    also re-entered the planner.
    """

    kind: str
    reason: str
    seconds: float
    operations: int
    replanned: bool = False


def incremental_decision(spec: Query) -> str | None:
    """Why ``spec`` cannot be maintained incrementally, or None if it can.

    This is the *structural* half of the fallback matrix — properties of
    the query alone.  Data-dependent cases (self-join deltas, deletes
    under MIN/MAX) are decided per delta batch by ``ViewState.apply``.
    """
    if spec.limit is not None and not spec.order_by:
        return ("LIMIT without ORDER BY: the kept rows are not a "
                "deterministic function of the data")
    for agg in spec.aggregates:
        semiring = agg.semiring()
        if not semiring.has_product:
            return (f"aggregate semiring {semiring.name!r} has no product; "
                    "join-tree messages cannot combine annotations")
    try:
        join_tree_of(spec.core)
    except QueryError:
        return "cyclic hypergraph: no join tree to store messages on"
    return None


class Subscription:
    """One standing query registered with an engine session.

    Created through :meth:`repro.engine.session.Engine.subscribe`; the
    engine pushes every catalog change into it.  ``result`` is the current
    result relation, ``rows()`` the current rows honoring ORDER BY/LIMIT,
    and ``last_maintenance`` describes the most recent maintenance step.

    ``on_change`` (when given) is called with the subscription after any
    step that changed the result relation.
    """

    def __init__(self, engine, query, axes: PlanAxes, *,
                 on_change: Callable[["Subscription"], Any] | None = None,
                 replan_threshold: int = 1):
        if replan_threshold < 1:
            raise QueryError(
                f"replan_threshold must be >= 1, got {replan_threshold}"
            )
        self._engine = engine
        self._spec = Query.coerce(query)
        self._axes = axes
        self._on_change = on_change
        self._replan_threshold = replan_threshold
        self._canon = canonical_query(self._spec)
        self._relations = frozenset(
            atom.relation for atom in self._spec.core.atoms)
        self._active = True
        self._state: ViewState | None = None
        self._fallback_reason: str | None = incremental_decision(self._spec)
        self._result: Relation | None = None
        self._planned_fingerprint: tuple[int, ...] = ()
        self.last_maintenance: MaintenanceRecord | None = None
        self._materialize("initial materialization")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def query(self) -> Query:
        """The standing query."""
        return self._spec

    @property
    def result(self) -> Relation:
        """The current result relation; it iterates in the order an
        executed result would (equality and ``len`` are set-based)."""
        return self._result

    @property
    def active(self) -> bool:
        """False once unsubscribed (or deactivated by a relation drop)."""
        return self._active

    @property
    def incremental(self) -> bool:
        """True while a ViewState is live (deltas can propagate)."""
        return self._state is not None

    @property
    def fallback_reason(self) -> str | None:
        """Why the subscription maintains by refresh (None = incremental)."""
        return self._fallback_reason

    def rows(self) -> list[tuple]:
        """The current rows: an ordered view's in the order its result
        iterates (ranked and limited already), any other's sorted."""
        if self._spec.order_by:
            return list(self._result)
        return self._result.sorted_tuples()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def refresh(self, reason: str = "manual refresh",
                replanned: bool = False) -> MaintenanceRecord:
        """Re-execute through the dispatch path and rebuild the state.

        The full cost (re-execution plus message-state rebuild) is
        charged to one counter, so ``last_maintenance.operations`` stays
        an honest account of what the fallback really did.
        """
        counter = OperationCounter()
        start = time.perf_counter()
        result = self._engine.execute(self._spec, counter=counter,
                                      **asdict(self._axes))
        self._rebuild_state(counter)
        self._planned_fingerprint = self._current_fingerprint()
        record = MaintenanceRecord(
            "refresh", reason, time.perf_counter() - start,
            counter.total(), replanned)
        self._finish(result, record)
        return record

    def _materialize(self, reason: str) -> None:
        """First materialization: the dispatch path plus, when the shape
        allows it, the any-k check that only a resolved plan can answer."""
        if self._fallback_reason is None:
            prepared = self._engine._prepare(self._spec, self._axes)
            if payload_ranked_mode(prepared.payload) is not None:
                self._fallback_reason = (
                    "any-k ranked plan: output is a lazy enumeration, "
                    "not maintainable state")
            elif prepared.plan.strategy == "hybrid":
                self._fallback_reason = (
                    "hybrid heavy/light plan: a delta can move keys "
                    "across the partition boundary, so sub-plans are "
                    "not independently maintainable; tracked refresh")
        self.refresh(reason)

    def _on_delta(self, applied) -> None:
        """Engine callback: one effective tuple-delta batch was applied."""
        if not self._active or applied.name not in self._relations:
            return
        drift = fingerprint_drift(self._current_fingerprint(),
                                  self._planned_fingerprint)
        if drift >= self._replan_threshold:
            self._engine._record_plan_invalidation(
                "stats-drift", self._canon.plan_form)
            self.refresh(
                f"statistics drifted {drift} size bucket(s) "
                f"(threshold {self._replan_threshold}); re-planned",
                replanned=True)
            return
        if self._state is None:
            self._refresh_after(applied, self._fallback_reason
                                or "no incremental state")
            return
        counter = OperationCounter()
        start = time.perf_counter()
        outcome = self._state.apply(applied.name, applied.inserted,
                                    applied.deleted, counter)
        if outcome is None:
            self._refresh_after(applied, self._per_delta_reason(applied))
            return
        record = MaintenanceRecord(
            "incremental", f"delta on {applied.name!r}",
            time.perf_counter() - start, counter.total())
        result = self._result_from_state()
        self._finish(result, record)

    def _refresh_after(self, applied, reason: str) -> None:
        """Fall back to a tracked refresh for one delta batch.

        The catalog already holds the post-delta contents, so re-execution
        (and the state rebuild inside :meth:`refresh`) picks them up; a
        per-delta fallback does not retire the state machinery.
        """
        try:
            self.refresh(reason)
        except QueryError:
            # e.g. a relation this query reads was dropped: the standing
            # query can no longer be evaluated — deactivate rather than
            # poisoning every future catalog mutation.
            self._active = False
            raise

    def _on_version_bump(self, name: str) -> None:
        """Engine callback: ``name`` was wholesale rebound or dropped."""
        if not self._active or name not in self._relations:
            return
        self._engine._record_plan_invalidation(
            "version-bump", self._canon.plan_form)
        if name not in self._engine.database:
            self._active = False
            self.last_maintenance = MaintenanceRecord(
                "refresh", f"relation {name!r} was removed; "
                "subscription deactivated", 0.0, 0, replanned=True)
            return
        self.refresh(f"version bump on {name!r}; re-planned",
                     replanned=True)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _current_fingerprint(self) -> tuple[int, ...]:
        core = self._spec.core
        return statistics_fingerprint(
            self._engine.database,
            [core.atoms[i].relation for i in self._canon.atom_order])

    def _rebuild_state(self, counter: OperationCounter) -> None:
        if self._fallback_reason is not None:
            self._state = None
            return
        try:
            self._state = ViewState(self._spec, self._engine.database,
                                    counter)
        except QueryError as exc:  # defensive: decision said yes
            self._state = None
            self._fallback_reason = str(exc)

    def _per_delta_reason(self, applied) -> str:
        if self._state is not None and len(
                self._state.relation_edges(applied.name)) > 1:
            return (f"relation {applied.name!r} appears in several atoms; "
                    "the delta rule needs the query to be linear in it")
        return ("delete under a non-invertible aggregate semiring "
                "(no additive inverse to retract with)")

    def _result_from_state(self) -> Relation:
        """The result relation of the current view state.  State rows are
        unordered, so this is where an ordered view ranks and limits
        them, in the order an executed result would iterate."""
        rows = self._state.rows()
        columns = self._spec.output_columns
        if self._spec.order_by:
            rows = sort_rows(rows, columns, self._spec.order_by,
                             self._spec.limit)
        return Relation.ordered(self._result.name, columns, rows)

    def _finish(self, result: Relation, record: MaintenanceRecord) -> None:
        changed = self._result is not None and result != self._result
        self._result = result
        self.last_maintenance = record
        self._engine._observe_maintenance(record)
        if changed and self._on_change is not None:
            self._on_change(self)

    def _deactivate(self) -> None:
        self._active = False

    def _drop_state(self) -> None:
        """Forget the incremental state after a maintenance step raised
        part-way: the next delta refreshes from the catalog instead of
        patching state that may have missed this one."""
        self._state = None

    def __repr__(self) -> str:
        mode = ("incremental" if self._state is not None
                else f"refresh ({self._fallback_reason})")
        return (f"Subscription({self._canon.form!r}, {mode}, "
                f"active={self._active})")
