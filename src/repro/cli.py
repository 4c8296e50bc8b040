"""Command-line entry point: run experiments or serve queries from a shell.

Usage::

    repro list                 # list available experiments
    repro table1               # run one experiment and print its table
    repro all                  # run every experiment
    repro triangle --sizes 100 200 400 --family skew

    # The persistent query engine (build once, query many times):
    repro engine --demo triangle-skew --size 400 --explain
    repro engine --relation E=edges.csv -q "Q(A,B,C) :- E(A,B), E(B,C), E(A,C)"
    repro engine --demo lw4 --query-file queries.txt --repeat 3 --mode auto

    # The unified query surface: constants, selections, aggregates,
    # ordered top-k (any-k ranked enumeration stops the join after k
    # results; see --ranked-mode); machine-consumable output via
    # --format json / --format csv:
    repro engine --relation E=edges.csv -q "Q(A) :- E(A,B), E(B,5), A < B"
    repro engine --relation E=edges.csv -q "Q(A, COUNT(*)) :- E(A,B)" --format json
    repro engine --relation E=edges.csv \\
        -q "Q(A,B) :- E(A,B) ORDER BY B DESC LIMIT 10" --ranked-mode anyk

    # Standing queries: subscribe, then stream tuple deltas through the
    # incremental-view-maintenance path (each batch re-prints the
    # refreshed result):
    repro engine --relation R=r.csv --relation S=s.csv \\
        -q "Q(A, SUM(B) AS total) :- R(A,B), S(A,C)" \\
        --subscribe --delta "R:+1,10" --delta "R:-2,20;+3,30"

    # Observability: span traces, cost-model calibration, metrics:
    repro engine --demo triangle-skew --trace trace.ndjson --repeat 2
    repro engine --demo triangle-skew --profile
    repro engine --demo triangle-skew --metrics

(``python -m repro ...`` works identically when the package is not
installed.)  Experiments print the same tables the benchmark harness embeds,
so this is the quickest way to regenerate a single paper artifact without
pytest.  The ``engine`` subcommand is a batch REPL over one
:class:`repro.engine.Engine` session: all queries share its plan cache,
index registry and result cache, and ``--repeat`` demonstrates warm-cache
serving on repeated workloads.
"""

from __future__ import annotations

import argparse
import csv
import heapq
import importlib
import itertools
import sys
import time
from typing import TYPE_CHECKING, Callable

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.experiments.runner import ExperimentTable


def _exp(module: str):
    """``repro.experiments.<module>``, imported when its experiment runs,
    so that `repro engine` loads no experiment."""
    return importlib.import_module(f"repro.experiments.{module}")


# Registry: name -> (description, runner taking the parsed args).
_EXPERIMENTS: dict[str, tuple[str, Callable[[argparse.Namespace], ExperimentTable]]] = {
    "table1": ("Table 1: bound taxonomy",
               lambda args: _exp("table1").run_table1()),
    "table2": ("Table 2: PANDA proof sequence for Example 1",
               lambda args: _exp("table2").run_table2(scale=args.scale)),
    "triangle-bounds": ("AGM LP regimes for the triangle (E3)",
                        lambda args: _exp("triangle_bounds")
                        .run_triangle_bounds()),
    "triangle": ("Triangle scaling: WCOJ vs pairwise (E4)",
                 lambda args: _exp("triangle_scaling").run_triangle_scaling(
                     sizes=tuple(args.sizes), family=args.family)),
    "loomis-whitney": ("Loomis-Whitney separation (E5)",
                       lambda args: _exp("loomis_whitney").run_loomis_whitney(
                           sizes=tuple(args.sizes))),
    "acyclic-dc": ("Algorithm 3 vs Theorem 5.1 bound (E6)",
                   lambda args: _exp("acyclic_dc").run_acyclic_dc(
                       sizes=tuple(args.sizes))),
    "example1": ("PANDA on Example 1 vs bound (75) (E7)",
                 lambda args: _exp("example1").run_example1_experiment(
                     scales=tuple(args.sizes))),
    "bound-lps": ("Modular vs polymatroid LPs (E8)",
                  lambda args: _exp("bound_lps").run_bound_lps()),
    "acyclify": ("Constraint acyclification (E9)",
                 lambda args: _exp("acyclify_exp").run_acyclify()),
    "inequalities": ("Shearer / Friedgut / Zhang-Yeung (E10)",
                     lambda args: _exp("inequalities").run_inequalities()),
    "tightness": ("AGM tightness (E11)",
                  lambda args: _exp("tightness").run_tightness()),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the experiment argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of 'Worst-Case Optimal Join "
                    "Algorithms' (Ngo, PODS 2018). Use the 'engine' "
                    "subcommand for the persistent query engine.",
    )
    parser.add_argument("experiment",
                        help="experiment name, 'all', or 'list' (the query "
                             "engine is 'repro engine ...', with 'engine' "
                             "as the first argument)")
    parser.add_argument("--sizes", type=int, nargs="+", default=[100, 200, 400],
                        help="instance-size sweep for scaling experiments")
    parser.add_argument("--scale", type=int, default=150,
                        help="instance scale for the Table 2 / Example 1 run")
    parser.add_argument("--family", choices=("skew", "agm_tight"), default="skew",
                        help="instance family for the triangle scaling experiment")
    return parser


def build_engine_parser() -> argparse.ArgumentParser:
    """Build the ``engine`` subcommand parser (exposed for testing)."""
    from repro.engine import AGGREGATE_MODES, BACKENDS, MODES, RANKED_MODES

    parser = argparse.ArgumentParser(
        prog="repro engine",
        description="Serve conjunctive queries from a persistent engine "
                    "session with a plan cache, an index registry, and "
                    "cost-based algorithm dispatch.",
    )
    data = parser.add_argument_group("data sources")
    data.add_argument("--demo",
                      choices=("triangle-skew", "triangle-tight", "triangle-zipf",
                               "lw4", "clique4"),
                      help="load a built-in instance family instead of files")
    data.add_argument("--size", type=int, default=200,
                      help="scale parameter for --demo instances")
    data.add_argument("--relation", action="append", default=[],
                      metavar="NAME=FILE.csv",
                      help="load a relation from a CSV file whose header row "
                           "names the attributes (repeatable)")
    workload = parser.add_argument_group("workload")
    workload.add_argument("-q", "--query", action="append", default=[],
                          help="a datalog-style query, e.g. "
                               "'Q(A,B,C) :- R(A,B), S(B,C), T(A,C)' "
                               "(repeatable)")
    workload.add_argument("--query-file",
                          help="file with one query per line ('#' comments)")
    workload.add_argument("--repeat", type=int, default=1,
                          help="run the whole workload this many times "
                               "(repetitions exercise the caches)")
    workload.add_argument("--subscribe", action="store_true",
                          help="register each query as a standing query "
                               "(incremental view maintenance) instead of "
                               "running it once; results re-print after "
                               "every --delta batch")
    workload.add_argument("--delta", action="append", default=[],
                          metavar="NAME:+1,2;-3,4",
                          help="apply a tuple delta batch to relation NAME "
                               "after the subscriptions materialize: "
                               "';'-separated signed tuples, '+' inserts "
                               "and '-' deletes (repeatable; requires "
                               "--subscribe)")
    execution = parser.add_argument_group("execution")
    execution.add_argument("--mode", default="auto", choices=MODES,
                           help="executor dispatch mode")
    execution.add_argument("--aggregate-mode", default="auto",
                           choices=AGGREGATE_MODES, dest="aggregate_mode",
                           help="aggregate execution: 'recursion' folds "
                                "eliminated variables inside the join "
                                "(FAQ-style), 'fold' drains the join and "
                                "folds its output, 'auto' prices both")
    execution.add_argument("--ranked-mode", default="auto",
                           choices=RANKED_MODES, dest="ranked_mode",
                           help="ORDER BY execution: 'anyk' enumerates "
                                "results in rank order out of the join "
                                "itself (stops after LIMIT results), "
                                "'drain' enumerates the join and "
                                "selects the top-k (a heap; a code sort "
                                "on columnar), 'auto' prices "
                                "both (queries may carry 'ORDER BY col "
                                "[DESC] ... LIMIT k' trailers)")
    execution.add_argument("--backend", default="python", choices=BACKENDS,
                           help="physical execution backend: 'python' "
                                "(reference tuple-at-a-time), 'columnar' "
                                "(sorted NumPy layouts with batched "
                                "searchsorted seeks; transparently falls back "
                                "when unsupported), 'auto' prices both — "
                                "results are identical either way")
    execution.add_argument("--limit", type=int, default=None,
                           help="stop each query after this many tuples "
                                "(pushed into the join recursion; applied "
                                "after ordering for ORDER BY queries)")
    execution.add_argument("--explain", action="store_true",
                           help="print the chosen plan, AGM bound, and "
                                "cache provenance before each query")
    execution.add_argument("--show", type=int, default=3,
                           help="sample result rows to print per query "
                                "(table format only)")
    output = parser.add_argument_group("output")
    output.add_argument("--format", choices=("table", "json", "csv"),
                        default="table", dest="format",
                        help="result format; json/csv print every result "
                             "row to stdout (machine-consumable) and move "
                             "the session chatter to stderr")
    observability = parser.add_argument_group("observability")
    observability.add_argument("--trace", metavar="FILE", dest="trace",
                               help="record query-lifecycle spans and write "
                                    "them to FILE as NDJSON at session end")
    observability.add_argument("--profile", action="store_true",
                               help="after each query's first run, execute "
                                    "it under every priced strategy and "
                                    "print the cost-model calibration table "
                                    "(predicted envelope vs measured "
                                    "operations)")
    observability.add_argument("--metrics", action="store_true",
                               help="print the session's metrics registry "
                                    "in Prometheus text exposition format "
                                    "at session end")
    return parser


def _coerce_rows(rows: list[tuple[str, ...]]) -> list[tuple]:
    """Convert a relation's cells to int only when *every* cell round-trips
    (``str(int(cell)) == cell``); otherwise the whole relation stays textual.

    The granularity matters: per-cell conversion produces mixed int/str
    columns (TypeError from sorting), and per-column conversion can leave
    one column int and another str, making any join variable that spans
    both silently empty.  All-or-nothing per relation keeps every value of
    a relation in one comparable domain.  Coercing cells that merely
    *parse* as int would silently merge distinct rows like ``1,2`` and
    ``01,2`` under set semantics, hence the round-trip requirement.
    """
    try:
        coerced = [tuple(int(cell) for cell in row) for row in rows]
    except ValueError:
        return list(rows)
    for row, ints in zip(rows, coerced):
        if any(str(i) != cell for cell, i in zip(row, ints)):
            return list(rows)
    return coerced


def _load_csv_relation(spec: str):
    """Load ``NAME=path.csv`` (header row = attribute names) as a Relation."""
    from repro.relational.relation import Relation

    if "=" not in spec:
        raise ValueError(
            f"--relation expects NAME=FILE.csv, got {spec!r}"
        )
    name, path = spec.split("=", 1)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"relation file {path!r} is empty") from None
        attributes = [a.strip() for a in header]
        rows = []
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(attributes):
                raise ValueError(
                    f"{path}:{line_number}: row has {len(row)} cells, "
                    f"expected {len(attributes)} (header {attributes})"
                )
            rows.append(tuple(cell.strip() for cell in row))
    return Relation(name.strip(), attributes, _coerce_rows(rows))


def _parse_delta(spec: str) -> tuple[str, list[tuple], list[tuple]]:
    """Parse ``NAME:+1,2;-3,4`` into (name, inserts, deletes).

    Signed tuples are ';'-separated; cells follow the same all-or-nothing
    int coercion as CSV relations (:func:`_coerce_rows`), applied across
    the whole batch so inserts and deletes stay in one value domain.
    """
    if ":" not in spec:
        raise ValueError(
            f"--delta expects NAME:+v1,v2;-v1,v2, got {spec!r}"
        )
    name, body = spec.split(":", 1)
    inserts: list[tuple] = []
    deletes: list[tuple] = []
    for part in body.split(";"):
        part = part.strip()
        if not part:
            continue
        sign, cells = part[0], part[1:]
        if sign not in "+-" or not cells.strip():
            raise ValueError(
                f"delta tuple {part!r} must be '+v1,v2' or '-v1,v2'"
            )
        row = tuple(cell.strip() for cell in cells.split(","))
        (inserts if sign == "+" else deletes).append(row)
    if not inserts and not deletes:
        raise ValueError(f"--delta batch {spec!r} holds no tuples")
    coerced = _coerce_rows(inserts + deletes)
    return name.strip(), coerced[:len(inserts)], coerced[len(inserts):]


def _demo_instance(demo: str, size: int):
    """A (database, default queries) pair for a built-in demo family."""
    from repro.datagen.loomis_whitney import loomis_whitney_random_instance
    from repro.datagen.worstcase import (
        clique_agm_tight_instance,
        triangle_agm_tight_instance,
        triangle_skew_instance,
    )

    if demo == "triangle-skew":
        query, database = triangle_skew_instance(size)
    elif demo == "triangle-tight":
        query, database = triangle_agm_tight_instance(size)
    elif demo == "triangle-zipf":
        from repro.datagen.graphs import zipf_triangle_instance

        query, database = zipf_triangle_instance(size, skew=1.5, seed=0)
    elif demo == "lw4":
        query, database = loomis_whitney_random_instance(4, size, seed=0)
    elif demo == "clique4":
        query, database = clique_agm_tight_instance(4, size)
    else:  # pragma: no cover - argparse choices prevent this
        raise ValueError(f"unknown demo {demo!r}")
    return database, [query]


def _mixed_type_variables(query, database) -> list[str]:
    """Join variables whose columns mix value types (e.g. int vs str).

    Such joins can never match (and crash the sorted-merge engines), so the
    CLI reports them upfront — the diagnostic must not depend on which
    executor the cost model happens to pick.  Rich queries are checked on
    their lowered conjunctive core (fresh constant-bound variables
    included: a constant that can never match is merely empty, not an
    error).
    """
    query.validate_against(database)  # arity errors first, with their own message
    if hasattr(query, "core"):  # rich Query -> its variables-only core
        query = query.core
    kinds: dict[str, set[str]] = {}
    for atom in query.atoms:
        relation = database.get(atom.relation)
        for position, variable in enumerate(atom.variables):
            column_kinds = {type(t[position]).__name__ for t in relation.tuples}
            kinds.setdefault(variable, set()).update(column_kinds)
    return sorted(v for v, k in kinds.items() if len(k) > 1)


def _ordered_rows(result, query, show: int | None = None) -> list[tuple]:
    """The result's rows, or its first ``show``: an ordered query's as the
    engine delivered them (already ranked), any other's sorted — their
    delivery order over string values depends on ``PYTHONHASHSEED`` —
    by an O(n) heap sample when only ``show`` are wanted."""
    if getattr(query, "order_by", ()):
        return list(itertools.islice(result, show))
    if show is None:
        return result.sorted_tuples()
    return heapq.nsmallest(show, result.tuples)


def _emit_result(result, query, fmt: str, show: int) -> None:
    """Print one query result to stdout in the requested format."""
    import json

    if fmt == "json":
        print(json.dumps({
            "name": result.name,
            "columns": list(result.attributes),
            "rows": [list(row) for row in _ordered_rows(result, query)],
        }))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(result.attributes)
        writer.writerows(_ordered_rows(result, query))
    elif show > 0:
        for row in _ordered_rows(result, query, show):
            print(f"    {row}")


def engine_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``engine`` subcommand."""
    from repro.engine import Engine
    from repro.obs import Tracer
    from repro.query.parser import parse_query
    from repro.relational.database import Database

    parser = build_engine_parser()
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if args.limit is not None and args.limit < 0:
        parser.error("--limit must be >= 0")
    if args.delta and not args.subscribe:
        parser.error("--delta requires --subscribe")
    if args.subscribe and args.repeat != 1:
        parser.error("--subscribe does not combine with --repeat "
                     "(a standing query is already long-lived)")
    if args.subscribe and args.backend != "python":
        parser.error("--subscribe maintains results incrementally on the "
                     "python backend; --backend does not apply")
    try:
        deltas = [_parse_delta(spec) for spec in args.delta]
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    queries: list = []
    if args.demo:
        database, default_queries = _demo_instance(args.demo, args.size)
    else:
        database = Database()
        default_queries = []
    try:
        for spec in args.relation:
            database.add(_load_csv_relation(spec))
    except (OSError, ValueError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    queries.extend(args.query)
    if args.query_file:
        try:
            with open(args.query_file) as handle:
                for line in handle:
                    line = line.strip()
                    if line and not line.startswith("#"):
                        queries.append(line)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if not queries:
        queries = default_queries
    if not queries:
        print("error: no queries; pass -q/--query-file or --demo",
              file=sys.stderr)
        return 2
    if len(database) == 0:
        print("error: no relations; pass --relation or --demo",
              file=sys.stderr)
        return 2

    # The CLI always counts operations: the per-query summary line is the
    # cheapest window into what a strategy actually did (and shows zero
    # work on result-cache hits).  Tracing stays opt-in via --trace.
    tracer = Tracer() if args.trace else None
    engine = Engine(database=database, tracer=tracer, collect_operations=True)
    # In the machine-consumable formats, only result rows go to stdout;
    # the session chatter (banner, explain, timing, stats) moves to stderr.
    chatter = sys.stdout if args.format == "table" else sys.stderr
    relation_summary = ", ".join(
        f"{name}({len(database.get(name))})" for name in database.relation_names
    )
    print(f"engine session over {len(database)} relations: {relation_summary}",
          file=chatter)
    try:
        # Parse and type-check once: the query list and catalog are fixed
        # for the whole run, and the repeat rounds exist to time the engine,
        # not redundant validation.
        parsed_queries = []
        for query in queries:
            parsed = parse_query(query) if isinstance(query, str) else query
            mixed = _mixed_type_variables(parsed, engine.database)
            if mixed:
                print(f"error: variable(s) {', '.join(mixed)} join "
                      f"columns with mixed value types; int and text "
                      f"columns do not join", file=sys.stderr)
                return 2
            parsed_queries.append(parsed)

        axes = {"mode": args.mode, "aggregate_mode": args.aggregate_mode,
                "ranked_mode": args.ranked_mode}
        if args.subscribe:
            subs = []
            for query in parsed_queries:
                if args.explain:
                    print(file=chatter)
                    print(engine.explain(query, **axes).render(),
                          file=chatter)
                started = time.perf_counter()
                sub = engine.subscribe(query, **axes)
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                maintained = ("incremental" if sub.incremental
                              else f"refresh-only: {sub.fallback_reason}")
                print(f"[subscribe] {sub.result.name}: {len(sub.result)} "
                      f"tuples in {elapsed_ms:.2f} ms · "
                      f"{sub.last_maintenance.operations} ops · "
                      f"{maintained}", file=chatter)
                _emit_result(sub.result, sub.query, args.format, args.show)
                subs.append(sub)
            for name, inserts, removals in deltas:
                applied = engine.apply_delta(name, inserts, removals)
                print(f"[delta] {name}: +{len(applied.inserted)} "
                      f"-{len(applied.deleted)} "
                      f"(version {applied.version})", file=chatter)
                for sub in subs:
                    reads = any(atom.relation == name
                                for atom in sub.query.core.atoms)
                    if reads and applied.changed:
                        maint = sub.last_maintenance
                        print(f"[maintain] {sub.result.name}: {maint.kind} "
                              f"· {maint.operations} ops · {maint.reason}",
                              file=chatter)
                    _emit_result(sub.result, sub.query, args.format,
                                 args.show)
        for round_index in range(args.repeat if not args.subscribe else 0):
            for query in parsed_queries:
                if args.explain:
                    print(file=chatter)
                    print(engine.explain(query, backend=args.backend,
                                         **axes).render(), file=chatter)
                started = time.perf_counter()
                try:
                    result = engine.execute(query, limit=args.limit,
                                            backend=args.backend, **axes)
                except TypeError as error:
                    # Joining an all-int relation against a textual one
                    # compares incomparable values in the sorted engines;
                    # with aggregates, the semiring fold can also hit a
                    # non-numeric column.  Narrow to this call so other
                    # TypeErrors traceback, and point at the right culprit.
                    if getattr(query, "aggregates", ()):
                        hint = ("is an aggregate (SUM/MIN/MAX) applied to "
                                "a column whose values do not support it?")
                    else:
                        hint = ("are joined relations loaded with "
                                "different value types? int and text "
                                "columns do not join")
                    print(f"error: {error} ({hint})", file=sys.stderr)
                    return 2
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                label = f"[run {round_index + 1}/{args.repeat}]"
                operations = engine.last_operations
                work = ""
                if operations is not None:
                    work = (f" · {operations.total()} ops "
                            f"({operations.search_nodes} search nodes)")
                print(f"{label} {result.name}: {len(result)} tuples "
                      f"in {elapsed_ms:.2f} ms{work}", file=chatter)
                _emit_result(result, query, args.format, args.show)
                if args.profile and round_index == 0:
                    print(engine.profile(query, **axes).render(),
                          file=chatter)
    except ReproError as error:  # parse/schema/dispatch problems
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(file=chatter)
    print(engine.stats, file=chatter)
    if args.metrics:
        print(file=chatter)
        print(engine.metrics_exposition(), end="", file=chatter)
    if args.trace:
        try:
            exported = engine.tracer.export_ndjson(args.trace)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"wrote {exported} spans to {args.trace}", file=chatter)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "engine":
        return engine_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, (description, _) in _EXPERIMENTS.items():
            print(f"{name:16s} {description}")
        return 0

    if args.experiment == "engine":
        # Reachable only when other flags preceded 'engine' in argv.
        parser.error("'engine' must be the first argument: "
                     "repro engine [options]")
        return 2  # pragma: no cover - parser.error raises SystemExit

    if args.experiment == "all":
        names = list(_EXPERIMENTS.keys())
    elif args.experiment in _EXPERIMENTS:
        names = [args.experiment]
    else:
        parser.error(
            f"unknown experiment {args.experiment!r}; run 'python -m repro list'"
        )
        return 2  # pragma: no cover - parser.error raises SystemExit

    for name in names:
        _description, runner = _EXPERIMENTS[name]
        table = runner(args)
        print(table)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
