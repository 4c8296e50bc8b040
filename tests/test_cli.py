"""Tests for the command-line experiment runner and engine subcommand."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_engine_parser, build_parser, main
from tools.analysis.layers import paper_side


class TestCli:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "loomis-whitney" in out

    def test_run_single_experiment(self, capsys):
        assert main(["triangle-bounds"]) == 0
        out = capsys.readouterr().out
        assert "[E3]" in out
        assert "(1/2,1/2,1/2)" in out

    def test_run_scaling_experiment_with_sizes(self, capsys):
        assert main(["triangle", "--sizes", "50", "100", "--family", "skew"]) == 0
        out = capsys.readouterr().out
        assert "[E4]" in out
        assert "best pairwise max intermediate" in out

    def test_run_tightness(self, capsys):
        assert main(["tightness"]) == 0
        assert "[E11]" in capsys.readouterr().out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-an-experiment"])

    def test_parser_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.scale == 150
        assert args.family == "skew"

    def test_package_version_exposed(self):
        import repro
        assert repro.__version__ == "1.0.0"


class TestEngineCli:
    def test_demo_run(self, capsys):
        assert main(["engine", "--demo", "triangle-skew", "--size", "60",
                     "--show", "0"]) == 0
        out = capsys.readouterr().out
        assert "engine session over 3 relations" in out
        assert "Q_triangle" in out
        assert "EngineStats" in out

    def test_engine_run_imports_no_experiment(self):
        # The experiment registry imports each runner's module only when
        # that experiment runs: an engine session loads no experiment.
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['engine', '--demo', 'triangle-skew',"
            " '--show', '0']) == 0\n"
            "print(*sorted(m for m in sys.modules if m.startswith('repro')))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.splitlines()[-1].split()
        assert "repro.engine.session" in loaded
        # The demo builds its relations with the workload generators; no
        # other paper-side module loads.
        assert [m for m in paper_side(loaded)
                if m.split(".")[1] != "datagen"] == []

    def test_repeat_reports_cache_hits(self, capsys):
        assert main(["engine", "--demo", "triangle-skew", "--size", "60",
                     "--repeat", "2", "--explain", "--show", "0"]) == 0
        out = capsys.readouterr().out
        assert "plan cache:     miss" in out
        assert "plan cache:     hit" in out
        assert "result_hits=1" in out

    def test_explicit_query_against_demo_data(self, capsys):
        assert main(["engine", "--demo", "triangle-skew", "--size", "40",
                     "-q", "P(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z)",
                     "--mode", "leapfrog", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "P: 5 tuples" in out

    def test_csv_relations_and_query_file(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        edges.write_text("A,B\n1,2\n2,3\n1,3\n")
        queries = tmp_path / "queries.txt"
        queries.write_text("# transitive triangles\n"
                           "Q(A,B,C) :- E(A,B), E(B,C), E(A,C)\n")
        assert main(["engine", "--relation", f"E={edges}",
                     "--query-file", str(queries)]) == 0
        out = capsys.readouterr().out
        assert "E(3)" in out
        assert "Q: 1 tuples" in out  # only 1->2->3 closes with the chord 1->3

    def test_csv_mixed_type_relation_stays_fully_textual(self, tmp_path,
                                                         capsys):
        # One non-numeric cell anywhere keeps the WHOLE relation textual:
        # per-column coercion would leave an int column joining against a
        # str column, silently losing the textual triangle 1-2-3.
        edges = tmp_path / "edges.csv"
        edges.write_text("A,B\n1,2\nx,1\n2,3\n1,3\n")
        assert main(["engine", "--relation", f"E={edges}",
                     "-q", "Q(A,B,C) :- E(A,B), E(B,C), E(A,C)"]) == 0
        out = capsys.readouterr().out
        assert "E(4)" in out
        assert "Q: 1 tuples" in out
        assert "('1', '2', '3')" in out

    @pytest.mark.parametrize("mode", ["auto", "generic", "leapfrog"])
    def test_cross_relation_type_mismatch_is_a_clean_error(self, tmp_path,
                                                           capsys, mode):
        # An all-int relation joined with a textual one can never match
        # (and crashes the sorted engines); the CLI must report it upfront
        # in EVERY mode, not return a silently empty answer in some.
        ints = tmp_path / "ints.csv"
        ints.write_text("A,B\n1,2\n2,3\n")
        text = tmp_path / "text.csv"
        text.write_text("B,C\n2,x\n3,y\n")
        assert main(["engine", "--relation", f"R={ints}",
                     "--relation", f"S={text}",
                     "-q", "Q(A,B,C) :- R(A,B), S(B,C)",
                     "--mode", mode]) == 2
        assert "mixed value types" in capsys.readouterr().err

    def test_no_queries_errors(self, capsys):
        assert main(["engine"]) == 2
        assert "no queries" in capsys.readouterr().err

    def test_bad_relation_spec_errors(self, capsys):
        assert main(["engine", "--relation", "nonsense", "-q", "R(A,B)"]) == 2
        assert "error" in capsys.readouterr().err

    def test_ragged_csv_row_errors_with_line_number(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        edges.write_text("A,B\n1,2\n3,4,5\n2,3\n")
        assert main(["engine", "--relation", f"E={edges}",
                     "-q", "E(A,B)"]) == 2
        err = capsys.readouterr().err
        assert ":3:" in err and "3 cells" in err

    def test_duplicate_relation_name_errors(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        edges.write_text("A,B\n1,2\n")
        assert main(["engine", "--relation", f"E={edges}",
                     "--relation", f"E={edges}", "-q", "E(A,B)"]) == 2
        assert "already registered" in capsys.readouterr().err

    def test_missing_relation_file_errors(self, capsys):
        assert main(["engine", "--relation", "E=/does/not/exist.csv",
                     "-q", "E(A,B)"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unparsable_query_errors(self, capsys):
        assert main(["engine", "--demo", "triangle-skew", "--size", "20",
                     "-q", "this is not datalog ("]) == 2
        assert "error" in capsys.readouterr().err

    def test_engine_parser_defaults(self):
        args = build_engine_parser().parse_args(["--demo", "lw4"])
        assert args.mode == "auto"
        assert args.repeat == 1
        assert args.limit is None
        assert args.format == "table"


class TestEngineCliRichQueries:
    def _edges(self, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("A,B\n1,2\n2,3\n1,3\n3,4\n")
        return str(edges)

    def test_selection_and_constant_query(self, tmp_path, capsys):
        assert main(["engine", "--relation", f"E={self._edges(tmp_path)}",
                     "-q", "Q(A) :- E(A,B), E(B,3), A < B"]) == 0
        out = capsys.readouterr().out
        # Only A=1 qualifies: E(1,2), E(2,3), 1 < 2 (no edge enters 1).
        assert "Q: 1 tuples" in out
        assert "(1,)" in out

    def test_parse_error_reports_position(self, tmp_path, capsys):
        assert main(["engine", "--relation", f"E={self._edges(tmp_path)}",
                     "-q", "Q(A) :- E(A,B) junk"]) == 2
        err = capsys.readouterr().err
        assert "line 1, column 16" in err and "dangling" in err

    def test_json_format_prints_machine_readable_rows(self, tmp_path, capsys):
        import json

        assert main(["engine", "--relation", f"E={self._edges(tmp_path)}",
                     "-q", "Q(A, COUNT(*)) :- E(A,B)",
                     "--format", "json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["columns"] == ["A", "count"]
        assert sorted(payload["rows"]) == [[1, 2], [2, 1], [3, 1]]
        # The session chatter moved to stderr.
        assert "engine session" in captured.err
        assert "engine session" not in captured.out

    def test_csv_format_prints_header_and_all_rows(self, tmp_path, capsys):
        assert main(["engine", "--relation", f"E={self._edges(tmp_path)}",
                     "-q", "Q(A,B) :- E(A,B), A < B",
                     "--format", "csv"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line]
        assert lines[0] == "A,B"
        assert sorted(lines[1:]) == ["1,2", "1,3", "2,3", "3,4"]

    def test_aggregate_type_error_gets_aggregate_hint(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        data.write_text("A,B\n1,x\n2,y\n")
        assert main(["engine", "--relation", f"E={data}",
                     "-q", "Q(SUM(B)) :- E(A,B)"]) == 2
        err = capsys.readouterr().err
        assert "aggregate" in err
        assert "do not join" not in err

    def test_explain_shows_pushdown_in_cli(self, tmp_path, capsys):
        assert main(["engine", "--relation", f"E={self._edges(tmp_path)}",
                     "-q", "Q(A) :- E(A,B), E(B,3), A < B",
                     "--explain", "--show", "0"]) == 0
        out = capsys.readouterr().out
        assert "pushed below join" in out
        assert "session stats:" in out

    def test_stats_line_reports_operations(self, capsys):
        assert main(["engine", "--demo", "triangle-skew", "--size", "60",
                     "--repeat", "2", "--show", "0"]) == 0
        out = capsys.readouterr().out
        runs = [line for line in out.splitlines() if "search nodes" in line]
        assert len(runs) == 2
        assert "[run 1/2]" in runs[0] and " ops (" in runs[0]
        # The repeat is a result-cache hit: zero execution work, not the
        # first run's stale tallies.
        assert "0 ops (0 search nodes)" in runs[1]
        assert "0 ops" not in runs[0]

    def test_trace_flag_writes_ndjson(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.ndjson"
        assert main(["engine", "--demo", "triangle-skew", "--size", "60",
                     "--trace", str(trace_path), "--show", "0"]) == 0
        out = capsys.readouterr().out
        assert f"spans to {trace_path}" in out
        records = [json.loads(line)
                   for line in trace_path.read_text().splitlines()]
        assert records
        names = {record["name"] for record in records}
        assert {"query", "parse", "execute", "deliver"} <= names

    def test_trace_to_unwritable_path_errors(self, tmp_path, capsys):
        assert main(["engine", "--demo", "triangle-skew", "--size", "60",
                     "--trace", str(tmp_path / "no" / "dir.ndjson"),
                     "--show", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_profile_flag_prints_calibration_table(self, capsys):
        assert main(["engine", "--demo", "triangle-skew", "--size", "60",
                     "--profile", "--repeat", "2", "--show", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("calibration") == 1  # first round only
        assert "dispatched:" in out
        assert ("empirically best" in out
                or "did fewer operations" in out)

    def test_metrics_flag_prints_exposition(self, capsys):
        assert main(["engine", "--demo", "triangle-skew", "--size", "60",
                     "--metrics", "--show", "0"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_queries_total counter" in out
        assert "repro_queries_total 1" in out
        assert 'repro_dispatch_total{strategy=' in out

    def test_observability_chatter_stays_off_stdout_in_json(
            self, capsys):
        import json

        assert main(["engine", "--demo", "triangle-skew", "--size", "60",
                     "--metrics", "--profile", "--format", "json"]) == 0
        captured = capsys.readouterr()
        for line in captured.out.splitlines():
            json.loads(line)  # stdout stays machine-consumable
        assert "# TYPE" in captured.err
        assert "calibration" in captured.err

    def test_subscribe_reprints_results_after_each_delta(self, tmp_path,
                                                         capsys):
        import json

        r1 = tmp_path / "r1.csv"
        r1.write_text("a,b\n1,10\n2,20\n")
        r2 = tmp_path / "r2.csv"
        r2.write_text("a,c\n1,5\n2,6\n")
        assert main(["engine", "--relation", f"R1={r1}",
                     "--relation", f"R2={r2}",
                     "-q", "Q(A, SUM(B) AS total) :- R1(A,B), R2(A,C)",
                     "--subscribe", "--delta", "R1:+1,100",
                     "--delta", "R1:-1,10", "--format", "json"]) == 0
        captured = capsys.readouterr()
        payloads = [json.loads(line) for line in captured.out.splitlines()]
        assert [p["rows"] for p in payloads] == [
            [[1, 10], [2, 20]],
            [[1, 110], [2, 20]],
            [[1, 100], [2, 20]],
        ]
        assert "[subscribe] Q:" in captured.err
        assert "[delta] R1: +1 -0 (version 2)" in captured.err
        assert "[maintain] Q: incremental" in captured.err

    def test_delta_requires_subscribe(self, capsys):
        with pytest.raises(SystemExit):
            main(["engine", "--demo", "triangle-skew",
                  "--delta", "R:+1,2"])
        assert "--delta requires --subscribe" in capsys.readouterr().err

    def test_malformed_delta_errors(self, tmp_path, capsys):
        r1 = tmp_path / "r1.csv"
        r1.write_text("a,b\n1,10\n")
        assert main(["engine", "--relation", f"R1={r1}",
                     "-q", "Q(A) :- R1(A,B)", "--subscribe",
                     "--delta", "R1:1,2"]) == 2
        assert "must be '+v1,v2' or '-v1,v2'" in capsys.readouterr().err
