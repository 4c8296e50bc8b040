#!/usr/bin/env python3
"""Regenerate (or check) the dispatcher's cost table from measured runs.

``repro.engine.cost.COST_TABLE`` turns predicted operation counts into
the predicted milliseconds candidates are ranked by.  It is measured, not
hand-set: this tool plans a fixed seeded set of shapes — triangle,
4-cycle, LW(4), 3-path, star; uniform and Zipf out-degrees; plain,
grouped (in-recursion and folded) and ordered (any-k and drained) — reads
each strategy's *predicted* operations from ``Engine.explain`` and its
*actual* operations and wall clock from ``Engine.profile``, and fits

* seconds per operation of a strategy: the median over the shapes of
  ``wall / actual operations`` (runs under 1000 operations are all fixed
  overhead and are left out; ``generic`` and ``leapfrog`` are one
  recursion, priced once: their runs are pooled into ``generic``);
* the columnar kernel's fixed cost per level: single-tuple relations, so
  a call is nothing but set-up — the slope from a 2-level to a 4-level
  query; it is taken off the kernel's runs before its per-operation fit;
* the engine's stream-fold, per drained row, and index builds (one trie,
  one columnar layout over the largest relation of the set), per row.

The wall clock is ``Engine.profile``'s — the detail counter is on, which
is what EXPLAIN ANALYZE prints beside the prediction.

    python tools/calibrate_costs.py            # fit and print the table
    python tools/calibrate_costs.py --check    # op-count half only (CI)
    python tools/calibrate_costs.py --quick    # small instances

``--check`` is deterministic: it fails when, on any shape, a strategy's
actual operations are more than ``TOLERANCE`` times away from what the
committed simulation predicts — the simulation has drifted from what
the executors do.
"""

from __future__ import annotations

import argparse
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Iterator

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.datagen.graphs import erdos_renyi_graph, zipf_outdegree_graph  # noqa: E402
from repro.datagen.loomis_whitney import loomis_whitney_random_instance  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.engine.cost import COST_TABLE, STRATEGIES  # noqa: E402
from repro.obs.profile import profile_query  # noqa: E402
from repro.query.builder import Query  # noqa: E402
from repro.query.semiring import count, fold_aggregates  # noqa: E402
from repro.relational.relation import Relation  # noqa: E402

#: ``--check`` fails beyond this factor between actual and predicted
#: operations (either way); the tier-1 tests hold the same bound.
TOLERANCE = 8.0

#: A strategy predicted to need more operations than this is not run: the
#: nested-loop oracle at full size, and Yannakakis on the full-size Zipf
#: star.  Every ``ordered.anyk`` run executes, at ``--quick`` and at full
#: size.
MAX_PREDICTED_OPS = 2e6

GRAPH_SCHEMA = (("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C")),
                ("U", ("C", "D")), ("V", ("D", "A")))

#: body, grouped head, sort keys — over the graph schema or LW(4).
SHAPES = {
    "triangle": ("R(A,B), S(B,C), T(A,C)", "A,B,C"),
    "cycle4": ("R(A,B), S(B,C), U(C,D), V(D,A)", "A,B,C,D"),
    "path3": ("R(A,B), S(B,C), U(C,D)", "A,B,C,D"),
    "star": ("R(A,B), T(A,C), V(D,A)", "A,B,C,D"),
    "lw4": ("R_1(B,C,D), R_2(A,C,D), R_3(A,B,D), R_4(A,B,C)", "A,B,C,D"),
}

#: form name -> (query template over body/head, forced axes).
FORMS = {
    "plain": ("Q({head}) :- {body}", {}),
    # A pinned strict projection: on the paths and the 4-cycle the
    # guarded order (A -> B -> ... with a seen-set) differs from the
    # head-first one, so dispatch prices both and runs the cheaper.
    "projected": ("Q(C) :- {body}, A == 1", {}),
    "grouped.recursion": ("Q(A, COUNT(*) AS n) :- {body}",
                          {"aggregate_mode": "recursion"}),
    "grouped.fold": ("Q(A, COUNT(*) AS n) :- {body}",
                     {"aggregate_mode": "fold"}),
    "ordered.anyk": ("Q({head}) :- {body} ORDER BY B DESC, A LIMIT 10",
                     {"ranked_mode": "anyk"}),
    "ordered.drain": ("Q({head}) :- {body} ORDER BY B DESC, A LIMIT 10",
                      {"ranked_mode": "drain"}),
}


def relations(instance: str, quick: bool) -> list[Relation]:
    """The graph relations and LW(4) relations of one instance."""
    vertices, edges, lw = (30, 100, 60) if quick else (200, 800, 600)
    out = []
    for seed, (name, attrs) in enumerate(GRAPH_SCHEMA):
        if instance == "zipf":
            out.append(zipf_outdegree_graph(vertices, vertices, edges,
                                            skew=1.2, seed=seed, name=name,
                                            attributes=attrs))
        else:
            out.append(erdos_renyi_graph(vertices, edges, seed=seed,
                                         name=name, attributes=attrs))
    _query, database = loomis_whitney_random_instance(4, lw, seed=7)
    return out + list(database)


def calibration_set(quick: bool) -> Iterator[tuple[str, Engine, str, dict]]:
    """``(label, engine, query, axes)`` for every calibration run."""
    for instance in ("uniform", "zipf"):
        engine = Engine(relations=relations(instance, quick),
                        cache_results=False)
        for shape, (body, head) in SHAPES.items():
            for form, (template, axes) in FORMS.items():
                yield (f"{shape}.{instance}.{form}", engine,
                       template.format(head=head, body=body), axes)


def samples(quick: bool, repeats: int = 1) -> Iterator[dict]:
    """One record per (run, strategy): predicted and actual operations,
    and the best wall clock of ``repeats`` profiled runs."""
    for label, engine, query, axes in calibration_set(quick):
        costs = engine.explain(query, **axes).costs
        for strategy in STRATEGIES:
            predicted = costs.get(f"ops[{strategy}]")
            if predicted is None or predicted > MAX_PREDICTED_OPS:
                continue
            profile = min((engine.profile(query, mode=strategy, **axes)
                           .profiles[0] for _ in range(repeats)),
                          key=lambda p: p.wall_ms)
            yield {"run": label, "strategy": strategy,
                   "predicted": predicted, "actual": profile.actual,
                   "wall_ms": profile.wall_ms}


def check(quick: bool) -> int:
    """The deterministic half: actual / predicted operations per run."""
    worst: dict[str, tuple[float, str]] = {}
    failures = []
    for sample in samples(quick):
        ratio = max(sample["actual"], 1) / max(sample["predicted"], 1.0)
        distance = max(ratio, 1.0 / ratio)
        if distance > worst.get(sample["strategy"], (0.0, ""))[0]:
            worst[sample["strategy"]] = (distance, sample["run"])
        if distance > TOLERANCE:
            failures.append(sample)
    print(f"{'strategy':<12} {'worst actual/predicted distance':>32}  run")
    for strategy, (distance, run) in sorted(worst.items()):
        print(f"{strategy:<12} {distance:>32.2f}  {run}")
    for sample in failures:
        print(f"DRIFT {sample['run']} {sample['strategy']}: predicted "
              f"{sample['predicted']:.0f}, actual {sample['actual']} "
              f"(beyond {TOLERANCE:.0f}x)")
    return 1 if failures else 0


def columnar_level_cost() -> float:
    """Seconds per level of the columnar kernel's fixed cost: single-tuple
    relations, so a call is nothing but set-up, and the slope from a
    2-level to a 4-level query leaves out what every backend pays per
    call (no per-call term is left over: the line passes through zero)."""
    engine = Engine(relations=[Relation(name, attrs, [(0, 0)])
                               for name, attrs in GRAPH_SCHEMA],
                    cache_results=False)

    def call(query: str) -> float:
        engine.execute(query, backend="columnar")  # plan and layouts warm
        best = math.inf
        for _ in range(200):
            start = time.perf_counter()
            engine.execute(query, backend="columnar")
            best = min(best, time.perf_counter() - start)
        return best

    one = call("Q(A,B) :- R(A,B)")                       # 2 levels
    four = call("Q(A,B,C,D) :- R(A,B), S(B,C), U(C,D)")   # 4 levels
    return max(0.0, (four - one) / 2)


def fold_rate() -> float:
    """Seconds per row of the engine's stream-fold (a grouped COUNT)."""
    rows = [(i % 500, i) for i in range(20000)]
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        list(fold_aggregates(iter(rows), ("A", "B"), ("A",), [count()]))
        best = min(best, time.perf_counter() - start)
    return best / len(rows)


def build_rates(quick: bool) -> tuple[float, float]:
    """(trie, layout) build seconds per row, best of three cold builds."""
    relation = max(relations("uniform", quick), key=len)
    trie = layout = math.inf
    for _ in range(3):
        engine = Engine(relations=[relation], cache_results=False)
        registry = engine.registry
        start = time.perf_counter()
        registry.trie(relation.name, relation.attributes)
        trie = min(trie, time.perf_counter() - start)
        start = time.perf_counter()
        registry.columnar_layouts([("k", relation.name, relation.attributes)])
        layout = min(layout, time.perf_counter() - start)
    return trie / len(relation), layout / len(relation)


def fit(quick: bool) -> dict[str, float]:
    per_op: dict[str, list[float]] = {name: [] for name in STRATEGIES}
    for sample in samples(quick, repeats=3):
        if sample["actual"] >= 1000:
            per_op[sample["strategy"]].append(
                sample["wall_ms"] / 1000.0 / sample["actual"])
    level = columnar_level_cost()
    columnar = []
    for _label, engine, query, axes in calibration_set(quick):
        if "ranked_mode" in axes:  # the kernel has no any-k
            continue
        best = min((profile_query(engine, query, mode="generic",
                                  backend="columnar", **axes).profiles[0]
                    for _ in range(3)), key=lambda p: p.wall_ms)
        fixed = level * len(Query.coerce(query).core.variables)
        if best.actual >= 1000 and best.wall_ms / 1000.0 > 2 * fixed:
            columnar.append((best.wall_ms / 1000.0 - fixed) / best.actual)
    # One recursion, two intersection primitives, one price: their walls
    # sit within 20 % of each other in both directions and their counted
    # operations do not say which way, so a separate fit would rank them
    # by noise.
    per_op["generic"] += per_op.pop("leapfrog")
    table = {name: statistics.median(values) if values else COST_TABLE[name]
             for name, values in per_op.items()}
    trie, layout = build_rates(quick)
    table.update({"columnar": statistics.median(columnar),
                  "columnar.level": level,
                  "fold.row": fold_rate(),
                  "trie.row": trie, "layout.row": layout})
    return table


def provenance() -> str:
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"], capture_output=True,
            text=True, check=True,
            cwd=os.path.dirname(__file__)).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return (f"commit {commit}, python {platform.python_version()}, "
            f"{platform.machine()} x{os.cpu_count()}, "
            f"tools/calibrate_costs.py")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="only verify predicted vs actual operations")
    parser.add_argument("--quick", action="store_true",
                        help="small instances (seconds, not minutes)")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.quick)
    table = fit(args.quick)
    print(f"# provenance: {provenance()}"
          + (" --quick" if args.quick else ""))
    print("COST_TABLE = {")
    for name in COST_TABLE:
        print(f'    "{name}": {table[name]:.3e},'
              + (f"  # {1 / table[name] / 1e6:.2f} M/s"
                 if table[name] and not name.startswith("columnar.")
                 else ""))
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
