"""EXPLAIN ANALYZE: the cost model's predictions against measured work.

The dispatcher prices every feasible strategy from a per-level
simulation over the instance's own degrees (predicted operations, turned
into predicted milliseconds by one measured table — see
:mod:`repro.engine.cost`) and runs the cheapest.  This module closes the
loop: run the query under every priced strategy with a detail
:class:`~repro.joins.instrumentation.OperationCounter`, and report per
strategy the **calibration ratio** ``actual operations / predicted
operations`` beside the predicted and measured milliseconds.  A ratio
near 1 means the simulation tracks what the executor does; the tests
hold it within a factor of 8 on the calibration shapes.

``profile_query`` is deliberately engine-agnostic (the engine is passed
in and used through its public ``explain``/``execute`` surface) so this
module never imports :mod:`repro.engine` — the engine imports us.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import QueryError
from repro.joins.instrumentation import OperationCounter


@dataclass(frozen=True)
class StrategyProfile:
    """One strategy's measured run joined to its predicted envelope.

    Attributes
    ----------
    strategy:
        The executor that ran.
    predicted:
        The dispatcher's predicted operations for it (None when a forced
        strategy was priced ``inf`` and runs anyway: binary refused by
        the envelope, hybrid on an unskewed instance).
    predicted_ms:
        The dispatcher's predicted milliseconds on warm indexes — what
        candidates are ranked by; None exactly when ``predicted`` is.
    operations:
        The detail counter's :meth:`~repro.joins.instrumentation.
        OperationCounter.as_dict` — actual work, including ``total``.
    breakdown:
        Per-variable / per-phase attribution (``search_nodes[A]``,
        ``messages.tuples_scanned``, ...).
    calibration:
        ``actual total / predicted`` — below 1 the simulation over-states
        the instance; None without a finite positive prediction.
    wall_ms:
        Wall-clock of the measured run, counter on (context, not the
        primary axis: operation counts are what the bounds speak about).
    rows:
        Result cardinality.
    """

    strategy: str
    predicted: float | None
    operations: dict[str, int]
    breakdown: dict[str, int] = field(default_factory=dict)
    calibration: float | None = None
    wall_ms: float = 0.0
    rows: int = 0
    predicted_ms: float | None = None

    @property
    def actual(self) -> int:
        """Total measured operations."""
        return self.operations.get("total", 0)


@dataclass(frozen=True, eq=False)
class ProfileReport:
    """Every strategy's calibration for one query, plus the verdict.

    ``dispatch_optimal`` is whether the dispatched strategy's measured
    operation total is the minimum among the profiled strategies — i.e.
    whether the cost model's *ranking* was right on this instance, which
    is a weaker (and more achievable) property than its *values* being
    tight.
    """

    query: str
    mode: str
    dispatched: str
    agm_log2: float
    profiles: tuple[StrategyProfile, ...]
    best_strategy: str | None
    dispatch_optimal: bool

    def profile_for(self, strategy: str) -> StrategyProfile | None:
        for profile in self.profiles:
            if profile.strategy == strategy:
                return profile
        return None

    def render(self) -> str:
        """A human-readable calibration table (used by ``--profile``)."""
        lines = [f"profile:        {self.query}",
                 f"dispatched:     {self.dispatched} (mode={self.mode})"]
        header = (f"  {'strategy':<12} {'predicted':>12} {'actual':>10} "
                  f"{'calibration':>12} {'pred ms':>9} {'wall ms':>9} "
                  f"{'rows':>7}")
        lines.append(header)
        for profile in self.profiles:
            predicted = (f"{profile.predicted:.4g}"
                         if profile.predicted is not None else "—")
            ratio = (f"{profile.calibration:.3f}"
                     if profile.calibration is not None else "—")
            predicted_ms = (f"{profile.predicted_ms:.2f}"
                            if profile.predicted_ms is not None else "—")
            marker = " *" if profile.strategy == self.dispatched else ""
            lines.append(
                f"  {profile.strategy:<12} {predicted:>12} "
                f"{profile.actual:>10} {ratio:>12} {predicted_ms:>9} "
                f"{profile.wall_ms:>9.2f} {profile.rows:>7}{marker}"
            )
        dispatched = self.profile_for(self.dispatched)
        if dispatched is not None and dispatched.breakdown:
            lines.append("  dispatched breakdown:")
            for label in sorted(dispatched.breakdown):
                lines.append(f"    {label} = {dispatched.breakdown[label]}")
        if self.best_strategy is not None:
            verdict = ("dispatch picked the empirically best strategy"
                       if self.dispatch_optimal else
                       f"dispatch picked {self.dispatched}; "
                       f"{self.best_strategy} did fewer operations")
            lines.append(f"  {verdict}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _priced_strategies(costs: dict[str, float]
                       ) -> list[tuple[str, float | None, float | None]]:
    """Feasible strategies of a costs dict as ``(name, predicted
    operations, predicted ms)``: the bracket-free keys with a finite cost
    (bracketed ones — ``ops[generic]``, ``agg[recursion]`` — are meta)."""
    return [(name, costs.get(f"ops[{name}]"), cost)
            for name, cost in sorted(costs.items())
            if "[" not in name and cost != float("inf")]


def profile_query(engine: Any, query: Any, mode: str = "auto",
                  **axes: str) -> ProfileReport:
    """Run ``query`` under every priced strategy and calibrate the model.

    Each run passes a fresh detail counter, which also bypasses the
    engine's result cache — a cached answer costs zero operations and
    would calibrate the model against nothing.  Under a forced ``mode``
    the dispatcher prices only that strategy, so only it runs.  The
    remaining dispatch ``axes`` are forwarded as given to
    ``engine.explain`` and to every ``engine.execute``, so the plans
    profiled are the ones the explained request would run.
    """
    explanation = engine.explain(query, mode=mode, **axes)
    priced = _priced_strategies(explanation.costs)
    if not priced:
        priced = [(explanation.strategy, None, None)]

    profiles: list[StrategyProfile] = []
    for strategy, predicted, predicted_ms in priced:
        counter = OperationCounter(detail=True)
        start = time.perf_counter()
        try:
            result = engine.execute(query, mode=strategy, counter=counter,
                                    **axes)
        except QueryError:
            # Priced but unrunnable here (e.g. a stale plan regime);
            # profiling reports what did run rather than failing the lot.
            continue
        wall_ms = (time.perf_counter() - start) * 1000.0
        actual = counter.total()
        calibration = (actual / predicted
                       if predicted is not None and predicted > 0 else None)
        profiles.append(StrategyProfile(
            strategy=strategy,
            predicted=predicted,
            operations=counter.as_dict(),
            breakdown=dict(counter.breakdown),
            calibration=calibration,
            wall_ms=wall_ms,
            rows=len(result),
            predicted_ms=predicted_ms,
        ))

    best = min(profiles, key=lambda p: p.actual, default=None)
    dispatched_profile = next(
        (p for p in profiles if p.strategy == explanation.strategy), None)
    dispatch_optimal = (best is not None and dispatched_profile is not None
                        and dispatched_profile.actual == best.actual)
    return ProfileReport(
        query=explanation.query,
        mode=mode,
        dispatched=explanation.strategy,
        agm_log2=explanation.agm_log2,
        profiles=tuple(profiles),
        best_strategy=best.strategy if best is not None else None,
        dispatch_optimal=dispatch_optimal,
    )
