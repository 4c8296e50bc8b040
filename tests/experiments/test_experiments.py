"""Integration tests: every experiment module runs and reproduces the paper's
qualitative claims at small scale."""


import pytest

from repro.experiments.acyclic_dc import run_acyclic_dc
from repro.experiments.acyclify_exp import run_acyclify
from repro.experiments.bound_lps import run_bound_lps
from repro.experiments.example1 import run_example1_experiment
from repro.experiments.inequalities import run_inequalities
from repro.experiments.loomis_whitney import run_loomis_whitney
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.tightness import run_tightness
from repro.experiments.triangle_bounds import run_triangle_bounds
from repro.experiments.triangle_scaling import run_triangle_scaling
from repro.experiments.runner import ExperimentTable, fit_exponent, format_table


class TestRunnerHelpers:
    def test_format_table_contains_columns_and_rows(self):
        table = ExperimentTable("EX", "demo", ("a", "b"))
        table.add_row(a=1, b=2.5)
        table.add_note("a note")
        text = format_table(table)
        assert "EX" in text and "demo" in text
        assert "a note" in text
        assert "2.5" in text

    def test_column_accessor(self):
        table = ExperimentTable("EX", "demo", ("a",))
        table.add_row(a=1)
        table.add_row(a=3)
        assert table.column("a") == [1, 3]

    def test_fit_exponent_recovers_power_law(self):
        xs = [10, 20, 40, 80]
        ys = [x ** 1.5 for x in xs]
        assert fit_exponent(xs, ys) == pytest.approx(1.5, abs=0.01)


class TestTable1:
    def test_rows_and_tightness_flags(self):
        table = run_table1(triangle_n=100, fd_m=8, example1_scale=80)
        assert len(table.rows) == 3
        # Cardinality-only row: observed tight.
        assert table.rows[0]["polymatroid tight (observed)"] is True
        # The bound columns are consistent: entropic estimate <= polymatroid.
        for row in table.rows:
            assert row["entropic estimate"] <= row["polymatroid bound"] + 1e-6
            assert row["achieved output"] <= row["polymatroid bound"] + 1e-6


class TestTable2:
    def test_structure_and_verification(self):
        table = run_table2(scale=80, seed=1)
        assert len(table.rows) == 9
        assert table.rows[0]["operation"] == "partition"
        assert any("matches Generic-Join = True" in note for note in table.notes)


class TestTriangleExperiments:
    def test_bounds_regimes(self):
        table = run_triangle_bounds(base=1000)
        balanced = table.rows[0]
        assert balanced["LP vertex"] == "(1/2,1/2,1/2)"
        skew = [r for r in table.rows if r["regime"] == "two tiny relations"][0]
        assert skew["LP vertex"] == "(1,1,0)"

    def test_skew_scaling_shows_separation(self):
        table = run_triangle_scaling(sizes=(50, 100, 200), family="skew")
        ns = [float(v) for v in table.column("N")]
        pairwise_exp = fit_exponent(
            ns, [float(v) for v in table.column("best pairwise max intermediate")])
        wcoj_exp = fit_exponent(ns, [float(v) for v in table.column("generic join ops")])
        assert pairwise_exp > 1.7
        assert wcoj_exp < 1.3

    def test_tight_scaling_tracks_output(self):
        table = run_triangle_scaling(sizes=(64, 144, 256), family="agm_tight")
        for row in table.rows:
            assert row["output"] == pytest.approx(row["agm bound"], rel=1e-6)
            # WCOJ work is within a small factor of the output size.
            assert row["generic join ops"] <= 10 * row["output"] + 10 * row["N"]


class TestLoomisWhitneyExperiment:
    def test_ratio_grows_with_n(self):
        table = run_loomis_whitney(ks=(3,), sizes=(50, 100, 200), family="skew")
        ratios = [float(r["pairwise/wcoj ratio"]) for r in table.rows]
        assert ratios == sorted(ratios)
        assert ratios[-1] > ratios[0] * 1.5


class TestDegreeConstraintExperiments:
    def test_acyclic_dc_within_bound(self):
        table = run_acyclic_dc(sizes=(30, 60), fanout=3, seed=1)
        assert all(row["within bound"] for row in table.rows)
        assert all(row["worst-case bound"] == pytest.approx(row["dual bound"], rel=1e-6)
                   for row in table.rows)

    def test_example1_within_bound(self):
        table = run_example1_experiment(scales=(80, 120), seed=1)
        for row in table.rows:
            assert row["within bound"]
            assert row["matches generic join"]

    def test_bound_lps_agree_on_acyclic(self):
        table = run_bound_lps(ns=(3, 4), constraints_per_n=3, seed=2)
        acyclic_rows = [r for r in table.rows if r["acyclic"]]
        assert acyclic_rows
        assert all(r["equal"] for r in acyclic_rows)
        cyclic_rows = [r for r in table.rows if not r["acyclic"]]
        assert cyclic_rows and not cyclic_rows[0]["equal"]

    def test_acyclify_experiment(self):
        table = run_acyclify()
        q63 = table.rows[0]
        assert q63["cyclic before"] and q63["acyclic after"]
        assert not q63["naive removal stays bounded"]
        fd = table.rows[1]
        assert fd["bound preserved"]


class TestInequalityAndTightnessExperiments:
    def test_inequalities_all_hold(self):
        table = run_inequalities(num_random_distributions=3, seed=1)
        assert all(row["holds"] for row in table.rows)

    def test_tightness_ratios_near_one(self):
        table = run_tightness(n=100)
        for row in table.rows:
            assert row["actual / bound"] == pytest.approx(1.0, abs=0.05)
