"""Seeded inputs and op lists of the six end-to-end workloads.

Everything the engine sees is built here from ``random.Random(seed)``:
the same seed gives the same relations, queries, constants and delta
batches.  The generators are the benchmark's own (nothing is taken from
``repro.datagen``), so a change to the program cannot change the inputs
it is measured on.

A workload is an object with

* ``oracle()``   the expected result of every op whose answer is fixed,
  from a fresh forced-``generic`` python session (the nested-loop oracle
  is quadratic per atom pair and infeasible beyond the ``--quick`` sizes,
  where it is used instead);
* ``open()``     build the engine and warm it the way the workload says;
* ``round(i)``   the ops of round ``i`` — the same list every round for
  the warm workloads, fresh constants or the next delta batch otherwise;
* ``perform(op)`` run one op and return what was timed and what to check.

README.md records why each workload exists and which layer it isolates.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro import Engine, Relation
from repro.joins.naive import nested_loop_join
from repro.obs.trace import NULL_TRACER
from repro.query.builder import Query
from repro.relational.database import Database

#: The binary relations of a graph instance; every suffix ("u" uniform,
#: "z" Zipf) gets one copy of each, e.g. ``Ru(A,B)`` and ``Rz(A,B)``.
GRAPH_SCHEMA = (("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C")),
                ("U", ("C", "D")), ("V", ("D", "A")))
ZIPF_SKEW = 1.2


# ---------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------
def deal(rng: random.Random, vertices: int, degrees: Sequence[int]) -> list:
    """Edges with the given out-degrees and level in-degrees.

    Source ``i`` takes the next ``degrees[i]`` ids off a shuffled cycle of
    all vertices, so its targets are distinct and every vertex is a target
    equally often (give or take one).  Both degree sequences are then the
    same for every seed; the seed decides who is joined to whom.  That is
    deliberate: the work of a join is mostly a sum over degrees.  With the
    endpoints drawn independently the operation count of one query moved
    by 2-4 % (uniform) and 16-23 % (Zipf) over eight seeds; dealt like
    this it moves by under 0.1 % and 3-7 %.
    """
    cycle = list(range(vertices))
    rng.shuffle(cycle)
    edges, at = [], 0
    for source, degree in enumerate(degrees):
        edges.extend((source, cycle[(at + k) % vertices])
                     for k in range(degree))
        at += degree
    return edges


def uniform_edges(rng: random.Random, vertices: int, edges: int) -> list:
    """About ``edges`` edges, every vertex the same out- and in-degree."""
    return deal(rng, vertices, [round(edges / vertices)] * vertices)


def zipf_edges(rng: random.Random, vertices: int, edges: int) -> list:
    """About ``edges`` edges, out-degree of vertex ``i`` proportional to
    ``(i+1)^-1.2`` (at least 1) in *every* relation, so low ids are heavy
    everywhere at once: what the hybrid strategy partitions on."""
    weights = [(i + 1) ** -ZIPF_SKEW for i in range(vertices)]
    scale = edges / sum(weights)
    return deal(rng, vertices, [min(vertices - 1, max(1, round(scale * w)))
                                for w in weights])


def graph_relations(rng: random.Random, suffix: str, vertices: int,
                    edges: int) -> list[Relation]:
    make = zipf_edges if suffix == "z" else uniform_edges
    return [Relation(name + suffix, attrs, make(rng, vertices, edges))
            for name, attrs in GRAPH_SCHEMA]


def lw4_relations(rng: random.Random, suffix: str, n: int) -> list[Relation]:
    """A random Loomis-Whitney LW(4) instance: four ternary relations of
    ``n`` tuples over a domain of ``2 n^(1/3)`` values (the recipe of
    ``repro.datagen.loomis_whitney_random_instance``); the Zipf variant
    draws every coordinate with weight ``(i+1)^-1.2``."""
    domain = max(2, round(2 * n ** (1 / 3)))
    weights = ([(i + 1) ** -ZIPF_SKEW for i in range(domain)]
               if suffix == "z" else None)
    relations = []
    for index, attrs in enumerate((("B", "C", "D"), ("A", "C", "D"),
                                   ("A", "B", "D"), ("A", "B", "C")), 1):
        tuples: set = set()
        while len(tuples) < min(n, domain ** 3 // 2):
            tuples.add(tuple(rng.choices(range(domain), weights, k=3)))
        relations.append(Relation(f"L{index}{suffix}", attrs, tuples))
    return relations


# ---------------------------------------------------------------------
# Ops, samples, digests
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class Op:
    """One client operation.

    ``kind`` is ``execute`` (``Engine.execute``), ``first_row``
    (``Engine.stream`` timed to its first row, then drained), ``session``
    (a new ``Engine`` plus the queries of ``script``) or ``delta``
    (``Engine.apply_delta``).  ``name`` is the op *type*: samples are
    grouped by it and the oracle is keyed on it.
    """

    kind: str
    name: str
    query: str = ""
    backend: str = "python"
    script: tuple = ()          # session: ((name, query), ...)
    relation: str = ""          # delta
    inserts: tuple = ()
    deletes: tuple = ()


@dataclass
class Outcome:
    """What one performed op was timed at and what must be checked.

    ``samples`` are ``(metric kind, op type, seconds)`` with metric kind
    one of ``query``, ``session``, ``first_row``, ``delta``; ``seconds``
    is the whole interval the client waited; ``results`` are
    ``(oracle key, rows, ordered)`` triples compared outside the timing.
    """

    seconds: float
    samples: list = field(default_factory=list)
    results: list = field(default_factory=list)


def digest(rows: Iterable[tuple], ordered: bool = False) -> tuple[int, str]:
    """Row count and a hash of the rows, sorted unless order is the point."""
    listed = list(rows) if ordered else sorted(rows)
    blob = repr(listed).encode()
    return len(listed), hashlib.blake2b(blob, digest_size=8).hexdigest()


def both(template: str) -> list[tuple[str, str]]:
    """A query template (``#`` marks the instance) on both instances."""
    return [("uniform", template.replace("#", "u")),
            ("zipf", template.replace("#", "z"))]


TRIANGLE = "Q(A,B,C) :- R#(A,B), S#(B,C), T#(A,C)"
PATH3 = "R#(A,B), S#(B,C), U#(C,D)"
STAR = "R#(A,B), T#(A,C), V#(D,A)"


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------
class Workload:
    """Shared behaviour; subclasses fill in inputs and the op list."""

    name = ""
    #: Rounds of the traced pass (and of the untraced pass it is compared
    #: with).  Fixed, so the per-layer counts repeat exactly.
    traced_rounds = 2
    #: Engine options of the timed phase (the issue's defaults).
    engine_options: dict = {"cache_results": False}

    def __init__(self, seed: int, quick: bool = False):
        self.quick = quick
        self.rng = random.Random(seed)
        self.engine: Engine | None = None
        self.tracer: Any = None       # set by the traced pass
        self.database = Database(self.relations())
        self.ops = self.fixed_ops()

    # -- inputs --------------------------------------------------------
    def relations(self) -> list[Relation]:
        raise NotImplementedError

    def fixed_ops(self) -> list[Op]:
        """The ops whose expected result is fixed at set-up."""
        raise NotImplementedError

    def round(self, index: int) -> list[Op]:
        return self.ops

    # -- oracle --------------------------------------------------------
    def oracle_queries(self) -> list[tuple[str, str, bool]]:
        """``(key, query, ordered)`` for every fixed op."""
        out = []
        for op in self.ops:
            if op.kind == "session":
                out.extend((name, query, False) for name, query in op.script)
            else:
                out.append((op.name, op.query, op.kind == "first_row"))
        return list(dict.fromkeys(out))

    def oracle(self) -> dict[str, tuple[int, str]]:
        reference = Engine(database=self.database, cache_results=False)
        expected = {}
        for key, text, ordered in self.oracle_queries():
            query = Query.coerce(text)
            plain = not (query.selections or query.aggregates
                         or query.order_by or query.limit is not None)
            if self.quick and plain:
                rows: Iterable[tuple] = nested_loop_join(
                    query.core, self.database).project(query.head_vars).tuples
            else:
                # Ordered queries enumerate and heap-select ("drain"): the
                # plainest path, and forced any-k under generic join took
                # 6 s on the ordered 3-path in the sizing trial.
                modes = {"mode": "generic",
                         "ranked_mode": "drain" if query.order_by else "auto"}
                rows = (reference.stream(query, **modes) if ordered
                        else reference.execute(query, **modes).tuples)
            expected[key] = digest(rows, ordered)
        return expected

    # -- lifecycle -----------------------------------------------------
    def open(self) -> None:
        """Construct the engine and warm it: one pass over the op list
        fills the plan cache and builds every trie or layout."""
        self.engine = Engine(database=self.database, **self.engine_options)
        for op in self.ops:
            self.perform(op)

    def trace(self, tracer: Any) -> None:
        """Switch the engine's own tracer on (or, with None, off)."""
        self.tracer = tracer
        if self.engine is not None:
            self.engine.tracer = tracer if tracer is not None else NULL_TRACER

    def engines(self) -> list[Engine]:
        """Engines whose counters the traced pass reads."""
        return [self.engine] if self.engine is not None else []

    def maintenance(self) -> list:
        """Standing-query maintenance records since the last call."""
        return []

    def perform(self, op: Op) -> Outcome:
        engine = self.engine
        if op.kind == "execute":
            start = time.perf_counter()
            result = engine.execute(op.query, backend=op.backend)
            seconds = time.perf_counter() - start
            return Outcome(seconds, [("query", op.name, seconds)],
                           [(op.name, result.tuples, False)])
        if op.kind == "first_row":
            start = time.perf_counter()
            stream = engine.stream(op.query, backend=op.backend)
            rows = [row for row in [next(stream, None)] if row is not None]
            first = time.perf_counter() - start
            rows.extend(stream)
            seconds = time.perf_counter() - start
            return Outcome(seconds, [("first_row", op.name, first)],
                           [(op.name, rows, True)])
        raise ValueError(f"workload {self.name!r} cannot perform {op.kind!r}")

    def expected(self, key: str, oracle: dict) -> tuple[int, str] | None:
        return oracle.get(key)

    def after_round(self, index: int) -> list[str]:
        """Checks that need no timing; returns failure messages."""
        return []

    def finish(self) -> list[str]:
        return []


class WarmCyclic(Workload):
    """Triangle, 4-cycle, grouped triangle and LW(4), plans and indexes
    warm.  The python and the columnar workload run the identical list."""

    def __init__(self, seed: int, quick: bool, backend: str):
        self.backend = backend
        self.name = f"warm_cyclic_{backend}"
        super().__init__(seed, quick)

    def relations(self) -> list[Relation]:
        vertices, edges, lw = (40, 120, 60) if self.quick else (400, 1600, 1200)
        out = []
        for suffix in "uz":
            out += graph_relations(self.rng, suffix, vertices, edges)
            out += lw4_relations(self.rng, suffix, lw)
        return out

    def fixed_ops(self) -> list[Op]:
        cycle = "R#(A,B), S#(B,C), U#(C,D), V#(D,A)"
        texts = {
            "triangle": TRIANGLE,
            "triangle_group": "Q(A, COUNT(*) AS n) :- " + TRIANGLE.split(":- ")[1],
            # COUNT keeps the 4-cycle's output from dominating; only the
            # uniform instance also enumerates it.
            "cycle4_count": f"Q(COUNT(*) AS n) :- {cycle}",
            "lw4": "Q(A,B,C,D) :- L1#(B,C,D), L2#(A,C,D), L3#(A,B,D), L4#(A,B,C)",
        }
        ops = [Op("execute", f"{name}.{instance}", query, self.backend)
               for name, template in texts.items()
               for instance, query in both(template)]
        ops.append(Op("execute", "cycle4.uniform",
                      f"Q(A,B,C,D) :- {cycle}".replace("#", "u"), self.backend))
        return ops


class AcyclicAggregate(Workload):
    """3-path and star aggregates and top-k, ``backend="auto"``."""

    name = "acyclic_aggregate"
    traced_rounds = 3

    def relations(self) -> list[Relation]:
        vertices, edges = (40, 120) if self.quick else (500, 1500)
        return (graph_relations(self.rng, "u", vertices, edges)
                + graph_relations(self.rng, "z", vertices, edges))

    def fixed_ops(self) -> list[Op]:
        ops = []
        for shape, body, column in (("path", PATH3, "D"), ("star", STAR, "C")):
            for fold in ("COUNT(*)", f"SUM({column})", f"MIN({column})"):
                template = f"Q(A, {fold} AS x) :- {body}"
                ops += [Op("execute", f"{shape}_{fold[:3].lower()}.{instance}",
                           query, "auto")
                        for instance, query in both(template)]
        # Enumerating (projection) ops stay on the uniform instance: on
        # the Zipf one the hubs multiply and a drained star ran out of
        # memory in the sizing trial (README, "Excluded op").
        for shape, body, key in (("path", PATH3, "D"), ("star", STAR, "B")):
            query = (f"Q(A,B,C,D) :- {body} ORDER BY {key} DESC, A LIMIT 10"
                     .replace("#", "u"))
            ops.append(Op("execute", f"{shape}_top.uniform", query, "auto"))
            ops.append(Op("first_row", f"{shape}_top.uniform.stream", query,
                          "auto"))
        return ops


class PointLookups(Workload):
    """Constant-bound short queries, a fresh constant on every op: the
    constant is part of the plan-cache key, so every op is planned."""

    name = "point_lookups"
    traced_rounds = 5
    per_round = 8                  # constants per round, three ops each
    TEMPLATES = (
        ("triangle_at", "Q(B,C) :- Ru({a},B), Su(B,C), Tu({a},C)"),
        ("two_hop", "Q(C) :- Ru({a},B), Su(B,C)"),
        ("degree", "Q(COUNT(*) AS n) :- Ru({a},B)"),
    )

    def relations(self) -> list[Relation]:
        self.vertices, edges = (40, 160) if self.quick else (600, 3000)
        return graph_relations(self.rng, "u", self.vertices, edges)

    def fixed_ops(self) -> list[Op]:
        self.constants = list(range(self.vertices))
        self.rng.shuffle(self.constants)
        by_name = {r.name: r for r in self.database}
        self.out = {name: {} for name in ("Ru", "Su", "Tu")}
        for name, index in self.out.items():
            for source, target in by_name[name].tuples:
                index.setdefault(source, set()).add(target)
        return []

    def round(self, index: int) -> list[Op]:
        # Round -1 (the warm-up) and every later round take the next
        # slice of the shuffled vertex ids; ids repeat only after the
        # plan cache (256 entries) has long evicted them.
        first = (index + 1) * self.per_round
        constants = [self.constants[(first + k) % self.vertices]
                     for k in range(self.per_round)]
        return [Op("execute", f"{name}@{a}", template.format(a=a))
                for a in constants for name, template in self.TEMPLATES]

    def open(self) -> None:
        self.engine = Engine(database=self.database, **self.engine_options)
        for op in self.round(-1):
            self.perform(op)

    def perform(self, op: Op) -> Outcome:
        outcome = super().perform(op)
        # Samples group by template, results check per constant.
        outcome.samples = [(kind, name.split("@")[0], seconds)
                           for kind, name, seconds in outcome.samples]
        return outcome

    def expected(self, key: str, oracle: dict) -> tuple[int, str]:
        """The answer from plain adjacency sets — no engine involved."""
        template, constant = key.split("@")
        a = int(constant)
        r, s, t = self.out["Ru"], self.out["Su"], self.out["Tu"]
        near = r.get(a, ())
        if template == "triangle_at":
            rows = [(b, c) for b in near for c in s.get(b, ())
                    if c in t.get(a, ())]
        elif template == "two_hop":
            rows = [(c,) for c in {c for b in near for c in s.get(b, ())}]
        else:
            rows = [(len(near),)]      # a global COUNT of nothing is 0
        return digest(rows)


class ColdSessions(Workload):
    """Every op is a new ``Engine`` over the pregenerated database and a
    three-query script, python and columnar sessions alternating."""

    name = "cold_sessions"
    traced_rounds = 4
    SCRIPT = (
        ("triangle", TRIANGLE),
        ("path_count", f"Q(A, COUNT(*) AS n) :- {PATH3}"),
        ("star_min", f"Q(A, MIN(C) AS m) :- {STAR}"),
    )

    def relations(self) -> list[Relation]:
        vertices, edges = (40, 120) if self.quick else (600, 3000)
        return graph_relations(self.rng, "u", vertices, edges)

    def fixed_ops(self) -> list[Op]:
        self.sessions: list[Engine] = []   # engines of the traced pass
        return [Op("session", f"session.{backend}", backend=backend,
                   script=tuple((f"{name}.{backend}", text.replace("#", "u"))
                                for name, text in self.SCRIPT))
                for backend in ("python", "columnar")]

    def oracle_queries(self) -> list[tuple[str, str, bool]]:
        return [(name, query, False)
                for op in self.ops for name, query in op.script]

    def open(self) -> None:
        # One discarded session per backend absorbs the process-level
        # lazy imports (scipy's LP solver alone costs ~0.5 s, once).
        for op in self.ops:
            self.perform(op)

    def trace(self, tracer: Any) -> None:
        self.tracer = tracer
        self.sessions = []

    def engines(self) -> list[Engine]:
        return self.sessions

    def perform(self, op: Op) -> Outcome:
        outcome = Outcome(0.0)
        start = time.perf_counter()
        engine = Engine(database=self.database, tracer=self.tracer,
                        **self.engine_options)
        for name, query in op.script:
            began = time.perf_counter()
            result = engine.execute(query, backend=op.backend)
            outcome.samples.append(
                ("query", name, time.perf_counter() - began))
            outcome.results.append((name, result.tuples, False))
        outcome.seconds = time.perf_counter() - start
        outcome.samples.append(("session", op.name, outcome.seconds))
        if self.tracer is not None:
            self.sessions.append(engine)
        return outcome


class DeltaStream(Workload):
    """Writes beside reads: three standing queries maintained under
    ``apply_delta`` batches, one read of the mutated relations and one of
    untouched relations per batch, result cache on."""

    name = "delta_stream"
    traced_rounds = 12
    engine_options = {"cache_results": True}
    VIEWS = (
        ("sum_view", "V1(A, SUM(C) AS s) :- Ru(A,B), Su(B,C)"),      # incremental
        ("min_view", "V2(A, MIN(C) AS m) :- Ru(A,B), Su(B,C)"),      # refresh on delete
        ("triangle_view", "V3(A,B,C) :- Ru(A,B), Su(B,C), Tu(A,C)"),  # refresh
    )
    READ_MUTATED = "Q(A, COUNT(*) AS n) :- Ru(A,B), Su(B,C)"
    READ_UNTOUCHED = "Q(D, COUNT(*) AS n) :- Uu(C,D), Vu(D,A)"
    CHECK_EVERY = 25

    def relations(self) -> list[Relation]:
        self.vertices, edges = (30, 90) if self.quick else (300, 1100)
        return graph_relations(self.rng, "u", self.vertices, edges)

    def fixed_ops(self) -> list[Op]:
        # Deletes walk the original tuples in seeded order and inserts
        # are tuples the relation never held, so every batch is fully
        # effective and no mirror of the contents is needed.
        self.plan = {}
        for name in ("Ru", "Su"):
            original = sorted(self.database.get(name).tuples)
            self.rng.shuffle(original)
            held = set(original)
            fresh = [(u, v) for u in range(self.vertices)
                     for v in range(self.vertices)
                     if u != v and (u, v) not in held]
            self.rng.shuffle(fresh)
            self.plan[name] = (original, fresh)
        self.subscriptions: dict = {}
        self.seen_maintenance: list = [None] * len(self.VIEWS)
        return [Op("execute", "read_mutated", self.READ_MUTATED),
                Op("execute", "read_untouched", self.READ_UNTOUCHED)]

    def oracle_queries(self) -> list[tuple[str, str, bool]]:
        return [("read_untouched", self.READ_UNTOUCHED, False)]

    def round(self, index: int) -> list[Op]:
        """Batch ``index``: 5 inserts + 1 delete, R and S alternating."""
        name = ("Ru", "Su")[index % 2]
        step = index // 2
        original, fresh = self.plan[name]
        delta = Op("delta", f"delta.{name}", relation=name,
                   inserts=tuple(fresh[5 * step:5 * step + 5]),
                   deletes=tuple(original[step:step + 1]))
        return [delta] + self.ops

    def open(self) -> None:
        self.engine = Engine(database=self.database, **self.engine_options)
        # The checker shares the catalog (it only reads) but none of the
        # session's caches; its registry notices the version bumps.
        self.checker = Engine(database=self.database, cache_results=False)
        self.subscriptions = {name: self.engine.subscribe(query)
                              for name, query in self.VIEWS}
        for op in self.ops:
            self.perform(op)

    def perform(self, op: Op) -> Outcome:
        if op.kind != "delta":
            return super().perform(op)
        start = time.perf_counter()
        self.engine.apply_delta(op.relation, op.inserts, op.deletes)
        seconds = time.perf_counter() - start
        return Outcome(seconds, [("delta", op.name, seconds)])

    def maintenance(self) -> list:
        records = [sub.last_maintenance
                   for sub in self.subscriptions.values()]
        new = [record for record, seen in zip(records, self.seen_maintenance)
               if record is not seen]
        self.seen_maintenance = records
        return new

    def fresh(self, query: str) -> Iterable[tuple]:
        return self.checker.execute(query, mode="generic").tuples

    def expected(self, key: str, oracle: dict) -> tuple[int, str] | None:
        if key == "read_mutated":
            return digest(self.fresh(self.READ_MUTATED))
        return oracle.get(key)

    def check_views(self) -> list[str]:
        return [f"{name} differs from a fresh execute"
                for name, query in self.VIEWS
                if digest(self.subscriptions[name].result.tuples)
                != digest(self.fresh(query))]

    def after_round(self, index: int) -> list[str]:
        return (self.check_views()
                if (index + 1) % self.CHECK_EVERY == 0 else [])

    def finish(self) -> list[str]:
        return self.check_views()


def build(name: str, seed: int, quick: bool = False) -> Workload:
    if name == "warm_cyclic_python":
        return WarmCyclic(seed, quick, "python")
    if name == "warm_cyclic_columnar":
        return WarmCyclic(seed, quick, "columnar")
    for cls in (AcyclicAggregate, PointLookups, ColdSessions, DeltaStream):
        if cls.name == name:
            return cls(seed, quick)
    raise ValueError(f"unknown workload {name!r}")
