"""Per-layer attribution from outside the program.

The traced pass runs a fixed number of rounds twice over the same
inputs — once untraced, once with the engine's own ``Tracer`` on — and
then *replays* every distinct (query, backend) pair through the public
functions of each layer, one harness span per call:

    parse_query -> Query.coerce -> canonical_query -> dispatch
      -> IndexRegistry.trie / .columnar_layouts (cold build)
      -> the chosen executor's stream, indexes prebuilt, counted

and the same for the forced WCOJ / Yannakakis alternatives, so the
dispatcher's regret is a wall-clock ratio.  Nothing under ``src/`` is
instrumented: the spans live here, in memory, and are written as NDJSON
when the pass ends (README.md, "Reading the trace").
"""

from __future__ import annotations

import gc
import itertools
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.columnar.executor import ColumnarExecutor
from repro.engine.cost import COLUMNAR_CAPABLE, STRATEGIES, dispatch
from repro.engine.executors import executor_for, unique_index_layouts
from repro.engine.fingerprint import canonical_query
from repro.engine.registry import IndexRegistry
from repro.joins.hybrid import partition_instance
from repro.joins.instrumentation import OperationCounter
from repro.obs.trace import Tracer
from repro.query.builder import Query
from repro.query.parser import parse_query
from repro.relational.database import Database

#: Harness span around each strategy's stream, by strategy name.
JOIN_SPAN = {
    "generic": "joins.generic_join.stream",
    "leapfrog": "joins.leapfrog.stream",
    "yannakakis": "joins.yannakakis",
    "binary": "joins.binary_plans",
    "hybrid": "joins.hybrid.execute",
    "naive": "joins.naive",
}
COLUMNAR_SPAN = "columnar.join.rows"
#: The engine tracer's stages below its ``query`` span.
ENGINE_STAGES = ("parse", "canonicalize", "plan_cache.lookup",
                 "dispatch.price", "index.resolve", "execute", "deliver")
PLANNING_STAGES = ENGINE_STAGES[:5]


class Spans:
    """In-memory spans: name, start, end, parent and the op they serve."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.epoch = time.perf_counter()
        self._open: list[dict] = []
        self._next = 0

    def new_id(self) -> int:
        self._next += 1
        return self._next

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[dict]:
        parent = self._open[-1] if self._open else None
        record = {"id": self.new_id(), "name": name, **attributes}
        record["parent"] = parent["id"] if parent else None
        record["op"] = parent["op"] if parent else record["id"]
        self._open.append(record)
        record["start"] = time.perf_counter() - self.epoch
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.epoch
            self._open.pop()
            self.records.append(record)

    def adopt(self, tracer: Tracer, offset: float, parent: dict) -> list[dict]:
        """Move the engine tracer's finished spans under ``parent``."""
        ids = {span.span_id: self.new_id() for span in tracer.spans}
        adopted = []
        for span in tracer.spans:
            start = span.start + offset
            adopted.append({
                "id": ids[span.span_id],
                "parent": ids.get(span.parent_id, parent["id"]),
                "op": parent["op"], "name": "engine." + span.name,
                "start": start, "end": start + span.duration_ms / 1000.0,
                **{k: v for k, v in span.attributes.items()
                   if isinstance(v, (str, int, float, bool))}})
        tracer.reset()
        self.records.extend(adopted)
        return adopted

    def named(self, name: str, **where: Any) -> list[dict]:
        return [r for r in self.records if r["name"] == name
                and all(r.get(k) == v for k, v in where.items())]

    def total_ms(self, name: str, **where: Any) -> float:
        return sum(ms(r) for r in self.named(name, **where))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.records, key=lambda r: r["start"]):
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def ms(record: dict) -> float:
    return (record["end"] - record["start"]) * 1000.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------
class Replayer:
    """Walks queries through the layers' public functions, one harness
    span per call.  One registry serves all replays, so an index is
    built (and its build timed) once per distinct layout, like a warm
    session would; every join then runs on prebuilt indexes."""

    def __init__(self, spans: Spans, database: Database):
        self.spans = spans
        self.database = database
        self.registry = IndexRegistry(database)
        self.parsed: dict[int, Query] = {}

    def chosen(self, text: str, backend: str) -> dict:
        """Parse, plan and run one (query, backend) as dispatch resolves
        it; returns the replay's root span."""
        spans = self.spans
        with spans.span("replay", query=text, backend=backend) as root:
            with spans.span("query.parser.parse"):
                parsed = parse_query(text)
            with spans.span("query.builder.coerce"):
                query = Query.coerce(parsed)
            with spans.span("engine.fingerprint.canonical"):
                canonical_query(query)
            join = self.run(query, "auto", backend)
            root.update(strategy=join["strategy"], acyclic=join["acyclic"],
                        chosen_ms=ms(join), best_ms=ms(join))
        self.parsed[root["id"]] = query
        return root

    def alternatives(self, root: dict) -> None:
        """The forced WCOJ / Yannakakis plans dispatch could have taken;
        lowers ``root["best_ms"]`` when one beats the chosen plan."""
        query = self.parsed[root["id"]]
        with self.spans.span("replay.alternatives", query=root["query"],
                             backend=root["backend"]):
            for mode in ("generic", "leapfrog", "yannakakis"):
                if mode != root["strategy"] and (mode != "yannakakis"
                                                 or root["acyclic"]):
                    join = self.run(query, mode, root["backend"])
                    root["best_ms"] = min(root["best_ms"], ms(join))

    def run(self, query: Query, mode: str, backend: str) -> dict:
        """Plan under ``mode`` and run the resolved plan as the session
        would; returns the join span, which carries the operation count
        of a separate, untimed run."""
        spans, database = self.spans, self.database
        # Forced any-k under generic join took 6 s on the ordered 3-path
        # (sizing trial), so ordered alternatives enumerate and heap-select.
        ranked = "drain" if query.order_by and mode != "auto" else "auto"
        with spans.span("engine.cost.dispatch", mode=mode):
            decision = dispatch(query.core, database, mode,
                                selections=query.all_selections,
                                aggregates=query.aggregates,
                                group=query.head_vars,
                                order_by=query.order_by, limit=query.limit,
                                ranked_mode=ranked, backend=backend)
        strategy = decision.strategy
        executor = executor_for(strategy)
        if strategy == "binary":
            payload = decision.binary_order
        elif decision.payload is not None:
            payload = decision.payload
        else:
            payload = executor.plan(query, database)
        columnar = (decision.backend == "columnar"
                    and strategy in COLUMNAR_CAPABLE)
        if columnar:
            executor = ColumnarExecutor(oracle=executor)
        self.build_indexes(
            unique_index_layouts(executor, query, database, payload),
            columnar, mode)
        if strategy == "hybrid":
            with spans.span("joins.hybrid.partition") as record:
                part = partition_instance(query.core, database, payload[1],
                                          payload[2])
                record["heavy_keys"] = len(part.heavy_keys)

        # The session folds and sorts above the stream, so its LIMIT
        # reaches the executor only when neither is pending.
        pending = ((query.aggregates
                    and not executor.handles_aggregation(query, payload))
                   or (query.order_by
                       and not executor.handles_ordering(query, payload)))
        limit = None if pending else query.limit

        def drain(counter: OperationCounter | None) -> int:
            rows = executor.stream(query, database, payload,
                                   registry=self.registry, counter=counter)
            return sum(1 for _ in itertools.islice(rows, limit))

        # Counted first, timed second: a counter slows hybrid plans by
        # half, and the counted run leaves the timed one warm.  The
        # collector is paused for the timed run: a full collection costs
        # 25-35 ms here and would land on one layer's single sample at
        # random (the traced ops themselves keep it, as users have it).
        counter = OperationCounter()
        drain(counter)
        gc.disable()
        try:
            with spans.span(COLUMNAR_SPAN if columnar else JOIN_SPAN[strategy],
                            mode=mode, strategy=strategy,
                            acyclic=decision.acyclic,
                            ops=counter.total()) as record:
                record["rows"] = drain(None)
        finally:
            gc.enable()
        return record

    def build_indexes(self, layouts: list, columnar: bool, mode: str) -> None:
        registry, database = self.registry, self.database
        warm = registry.columnar_is_warm if columnar else registry.is_warm
        cold = [pair for pair in layouts if not warm(*pair)]
        if not cold:
            return
        rows = sum(len(database.get(name)) for name, _ in cold)
        if columnar:
            with self.spans.span("columnar.layout.build", mode=mode,
                                 rows=rows):
                registry.columnar_layouts(
                    [(pair, pair[0], pair[1]) for pair in cold])
        else:
            with self.spans.span("relational.index.trie_build", mode=mode,
                                 rows=rows):
                for name, layout in cold:
                    registry.trie(name, layout)


# ---------------------------------------------------------------------
# The two passes
# ---------------------------------------------------------------------
def counters(workload) -> Counter:
    """The program's own counters, summed over the workload's engines."""
    total: Counter = Counter()
    for engine in workload.engines():
        snapshot = engine.metrics_snapshot()
        registry = engine.registry
        total.update({
            "plan_hits": engine.stats.plan_hits,
            "plan_misses": engine.stats.plan_misses,
            "index_builds": registry.builds,
            "index_reuses": registry.reuses + registry.layout_reuses,
            "layout_builds": registry.layout_builds,
            "plan_entries": snapshot.get("repro_plan_cache_entries", 0),
            "python": snapshot.get(
                'repro_backend_dispatch_total{backend="python"}', 0),
            "columnar": snapshot.get(
                'repro_backend_dispatch_total{backend="columnar"}', 0),
        })
    return total


def client_queries(op) -> list[tuple[str, str]]:
    """The (query, backend) pairs one op sends to the engine."""
    if op.kind == "session":
        return [(query, op.backend) for _name, query in op.script]
    if op.kind in ("execute", "first_row"):
        return [(op.query, op.backend)]
    return []


def traced_pass(workload, measure, oracle: dict, rounds: int,
                trace_path: Path) -> tuple[dict, Any]:
    """Untraced rounds, the same number traced, then the replays.

    ``measure`` is the timed-phase loop of run.py; returns the per-layer
    metrics and the traced phase (for attempted / failed).
    """
    untraced = measure(workload, oracle, rounds=rounds)
    spans = Spans()
    tracer = Tracer()
    offset = time.perf_counter() - spans.epoch   # tracer time -> span time
    workload.trace(tracer)
    workload.maintenance()           # forget the untraced pass's records
    before = counters(workload)
    executions: list[dict] = []      # one per client query, traced pass
    maintenance: list = []

    def observe(op, perform):
        with spans.span("op", type=op.name, kind=op.kind) as record:
            outcome = perform(op)
        engine_spans = spans.adopt(tracer, offset, record)
        roots = [s for s in engine_spans
                 if s["name"] == "engine.query" and s["parent"] == record["id"]]
        if op.kind == "first_row":
            # Engine.stream opens no span; the strategy is filled in below
            # from an execute of the same query.
            executions.append({"pair": client_queries(op)[0],
                               "strategy": None,
                               "wall_ms": outcome.seconds * 1000.0,
                               "stages_ms": 0.0, "ran": True})
        elif op.kind == "delta":
            maintenance.extend(workload.maintenance())
        for pair, root in zip(client_queries(op), roots):
            children = [s for s in engine_spans if s["parent"] == root["id"]]
            executions.append({
                "pair": pair, "strategy": root.get("strategy"),
                "wall_ms": ms(root),
                "stages_ms": sum(ms(s) for s in children
                                 if s["name"][7:] in PLANNING_STAGES),
                "ran": any(s["name"] == "engine.execute" for s in children)})
        return outcome

    try:
        traced = measure(workload, oracle, rounds=rounds,
                         first_round=rounds, observe=observe)
    finally:
        after = counters(workload)
        engines = len(workload.engines())
        workload.trace(None)
    delta = after - before
    seen = {e["pair"]: e["strategy"] for e in executions if e["strategy"]}
    for execution in executions:
        execution["strategy"] = seen.get(execution["pair"])

    replayer = Replayer(spans, workload.database)
    # Chosen plans first: they build exactly the indexes the workload
    # needs; what only an alternative needs is built (and tagged) later.
    replays = {pair: replayer.chosen(*pair)
               for pair in dict.fromkeys(e["pair"] for e in executions)}
    for root in replays.values():
        replayer.alternatives(root)
    apply_delta_ms = replay_deltas(spans, workload, rounds)
    spans.write(trace_path)
    metrics = per_layer(spans, executions, replays, maintenance, delta,
                        after["plan_entries"] / max(1, engines),
                        apply_delta_ms,
                        ratio(traced.busy, untraced.busy))
    return metrics, traced


def replay_deltas(spans: Spans, workload, rounds: int) -> float:
    """``Database.apply_delta`` alone, on a copy, for batches the engine
    has not seen (so every one is effective)."""
    mirror = Database(list(workload.database))
    for index in range(2 * rounds, 3 * rounds):
        for op in workload.round(index):
            if op.kind == "delta":
                with spans.span("relational.database.apply_delta",
                                relation=op.relation):
                    mirror.apply_delta(op.relation, op.inserts, op.deletes)
    return spans.total_ms("relational.database.apply_delta")


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------
def per_layer(spans: Spans, executions: list[dict], replays: dict,
              maintenance: list, delta: Counter, plan_entries: float,
              apply_delta_ms: float, overhead: float) -> dict[str, tuple]:
    """Every per-layer metric of BENCHMARK.json as ``name -> (value, unit)``.

    ``*_ms`` of a replayed layer is the cost of one cold call per distinct
    (query, backend); how often the engine actually paid it in the traced
    pass is in the counters next to it (calls, builds, hit ratio).  A
    layer the workload never enters reads 0.
    """
    out: dict[str, tuple] = {}

    def put(name: str, value: float, unit: str = "ms") -> None:
        out[name] = (value, unit)

    def rate(name: str, work: float, records: list[dict]) -> None:
        put(name, ratio(work, sum(ms(r) for r in records) / 1000.0), "1/s")

    put("query.parser.parse_ms", spans.total_ms("query.parser.parse"))
    put("query.builder.coerce_ms", spans.total_ms("query.builder.coerce"))
    put("engine.fingerprint.canonical_ms",
        spans.total_ms("engine.fingerprint.canonical"))

    put("engine.plan_cache.hit_ratio",
        ratio(delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"]),
        "ratio")
    put("engine.plan_cache.entries", plan_entries, "count")

    put("engine.cost.dispatch_ms",
        spans.total_ms("engine.cost.dispatch", mode="auto"))
    put("engine.cost.dispatch_calls", delta["plan_misses"], "count")
    chosen = Counter(e["strategy"] for e in executions)
    for strategy in STRATEGIES:
        put(f"engine.cost.strategy_share.{strategy}",
            ratio(chosen[strategy], len(executions)), "ratio")
    put("engine.cost.columnar_share",
        ratio(delta["columnar"], delta["columnar"] + delta["python"]), "ratio")
    put("engine.cost.regret_ratio",
        ratio(sum(r["chosen_ms"] for r in replays.values()),
              sum(r["best_ms"] for r in replays.values())), "ratio")

    for prefix, key in (("relational.index", "trie_build"),
                        ("columnar.layout", "build")):
        builds = spans.named(f"{prefix}.{key}", mode="auto")
        put(f"{prefix}.{key}_ms", sum(ms(r) for r in builds))
        rate(f"{prefix}.{key}_rows_per_s", sum(r["rows"] for r in builds),
             builds)

    put("engine.registry.index_builds", delta["index_builds"], "count")
    put("engine.registry.index_reuse_ratio",
        ratio(delta["index_reuses"], delta["index_reuses"]
              + delta["index_builds"] + delta["layout_builds"]), "ratio")
    put("engine.registry.layout_builds", delta["layout_builds"], "count")

    for prefix, span, key in (
            ("columnar.join", COLUMNAR_SPAN, "rows_ms"),
            ("joins.generic_join", JOIN_SPAN["generic"], "stream_ms"),
            ("joins.leapfrog", JOIN_SPAN["leapfrog"], "stream_ms"),
            ("joins.yannakakis", JOIN_SPAN["yannakakis"], "ms"),
            ("joins.binary_plans", JOIN_SPAN["binary"], "ms")):
        joins = spans.named(span)
        ops = sum(r["ops"] for r in joins)
        put(f"{prefix}.{key}", sum(ms(r) for r in joins))
        put(f"{prefix}.ops", ops, "count")
        rate(f"{prefix}.ops_per_s", ops, joins)
    partitions = spans.named("joins.hybrid.partition")
    put("joins.hybrid.partition_ms", sum(ms(r) for r in partitions))
    put("joins.hybrid.heavy_keys",
        sum(r["heavy_keys"] for r in partitions), "count")
    put("joins.hybrid.execute_ms", spans.total_ms(JOIN_SPAN["hybrid"]))

    incremental = [m for m in maintenance if m.kind == "incremental"]
    put("ivm.incremental_ms", 1000.0 * sum(m.seconds for m in incremental))
    put("ivm.refresh_ms", 1000.0 * sum(m.seconds for m in maintenance
                                       if m.kind == "refresh"))
    put("ivm.incremental_share",
        ratio(len(incremental), len(maintenance)), "ratio")
    put("ivm.maintenance_ops", sum(m.operations for m in maintenance),
        "count")
    put("relational.database.apply_delta_ms", apply_delta_ms)

    # What the session adds around the join (finish, fold, sort,
    # materialise): the traced wall clock minus the planning stages the
    # engine's tracer saw minus the join as replayed from outside.
    covered = [e for e in executions
               if e["strategy"] == replays[e["pair"]]["strategy"]]
    put("engine.session.self_ms",
        sum(e["wall_ms"] - e["stages_ms"]
            - (replays[e["pair"]]["chosen_ms"] if e["ran"] else 0.0)
            for e in covered))
    for stage in ENGINE_STAGES:
        put(f"engine.session.span_ms.{stage}",
            spans.total_ms("engine." + stage))
    put("engine.session.span_coverage",
        ratio(sum(spans.total_ms("engine." + s) for s in ENGINE_STAGES),
              spans.total_ms("engine.query")), "ratio")

    put("obs.trace.overhead_ratio", overhead, "ratio")
    put("bench.replay_coverage", ratio(len(covered), len(executions)),
        "ratio")
    return out
