"""CLI surface: subcommands, CSV schemas, manifests, exit codes, round-trips."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from apsr import ExperimentConfig, make_config, run_experiment
from apsr.cli import ANALYZE_COLUMNS, TIMESERIES_COLUMNS, load_config, main
from oracles import scan_max_paral


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# small smoke configuration\n"
        "dataset = nfv\n"
        "replicas = 1\n"
        "hosts = 40\n"
        "policy = random\n"
        "s = 2\n"
        "seed = 7\n"
    )
    return path


#: config-file settings that together give every ExperimentConfig field a value
#: of its type other than its default
CONFIG_FILE_CASES = [
    dict(dataset="amazon", replicas=2, hosts=50, policy="apsr", delta_hat=0.1, budget=64,
         period=5, alpha=0.5, estimator="oracle", lambda_a=7.5, arrival="mmpp",
         lambda_d=2.5, seed=18446744073709551623, max_slots=100),
    dict(dataset="nfv", policy="wf", schedulers=4),
    dict(dataset="nfv", budget="60%"),
]


class TestAnalyze:
    def test_grid_rows_and_header(self, tmp_path, capsys):
        assert run_cli("analyze", "-n", 100, "-B", 100, "--k-grid", "0,50,100") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ",".join(ANALYZE_COLUMNS)
        assert len(out) == 4
        k0 = out[1].split(",")
        assert (k0[3], k0[4], k0[5]) == ("0", "1", "100")  # k=0 -> s=1, d=B

    def test_full_availability_row_matches_scan_oracle(self, capsys):
        assert run_cli("analyze", "-n", 120, "-B", 120, "--k-grid", "120,120") == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        s_expected, d_expected = scan_max_paral(120, 0.05, 120, 120)
        assert (int(row[4]), int(row[5])) == (s_expected, d_expected)

    def test_schedulers_monotone_in_availability(self, capsys):
        assert run_cli("analyze", "-n", 200, "-B", 200, "--k-grid", "0:200:25") == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        schedulers = [int(r.split(",")[4]) for r in rows]
        assert schedulers == sorted(schedulers)

    def test_range_grid_is_inclusive(self, capsys):
        assert run_cli("analyze", "-n", 10, "-B", 10, "--k-grid", "0:10:5") == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [int(r.split(",")[3]) for r in rows] == [0, 5, 10]

    @pytest.mark.parametrize("grid", ["", "5:1", "0:10:0", "a,b", "0,999"])
    def test_malformed_grid_is_usage_error(self, grid):
        assert run_cli("analyze", "-n", 10, "-B", 10, "--k-grid", grid) == 2

    @pytest.mark.parametrize("delta_hat", ["2", "-0.1", "nan"])
    def test_delta_hat_out_of_range_is_usage_error(self, delta_hat, capsys):
        argv = ("analyze", "-n", 10, "-B", 10, "--k-grid", "0,5", "--delta-hat", delta_hat)
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "delta_hat must be in [0, 1]" in captured.err


class TestSimulate:
    def test_writes_manifest_and_timeseries(self, tmp_path, small_config):
        out = tmp_path / "results"
        assert run_cli("simulate", small_config, "--seeds", "7,8", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [7, 8]
        assert manifest["config"]["dataset"] == "nfv"
        assert len(manifest["runs"]) == 2
        assert "decline_ratio" in manifest["aggregate"]
        header = (out / "run_7.csv").read_text().splitlines()[0]
        assert header == ",".join(TIMESERIES_COLUMNS)

    def test_manifest_round_trips_to_identical_metrics(self, tmp_path, small_config):
        out = tmp_path / "results"
        assert run_cli("simulate", small_config, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        config = ExperimentConfig(**manifest["config"])
        run = manifest["runs"][0]
        metrics = run_experiment(replace(config, seed=run["seed"]))
        assert metrics.to_dict() == run["metrics"]
        assert set(run["metrics"]) == {
            "slots", "attempts", "successes", "declines_no_host", "declines_collision",
            "scheduler_queries", "controller_queries", "truncated",
            "decline_ratio", "throughput", "mean_active",
        }
        rows = [line.split(",") for line in (out / "run_7.csv").read_text().splitlines()[1:]]
        columns = [[float(v) if v else float("nan") for v in column] for column in zip(*rows)]
        series = metrics.series
        np.testing.assert_array_equal(columns, [getattr(series, c) for c in TIMESERIES_COLUMNS])
        assert series.slot == list(range(metrics.slots))

    def test_reruns_are_byte_identical(self, tmp_path, small_config):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", small_config, "--out", out_a) == 0
        assert run_cli("simulate", small_config, "--out", out_b) == 0
        assert (out_a / "run_7.csv").read_bytes() == (out_b / "run_7.csv").read_bytes()
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()

    def test_preset_name_accepted(self, tmp_path):
        out = tmp_path / "results"
        # compact override via file would be nicer, but presets must resolve as-is;
        # keep it cheap by pointing at the preset and trimming with max_slots
        path = tmp_path / "preset.cfg"
        path.write_text("preset = nfv\nmax_slots = 3\nseed = 0\n")
        assert run_cli("simulate", path, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["runs"][0]["metrics"]["truncated"] is True

    def test_rate_too_low_for_max_slots_ends_truncated(self, tmp_path):
        path = tmp_path / "idle.cfg"
        path.write_text("preset = nfv\nlambda_a = 1e-12\nmax_slots = 50\n")
        out = tmp_path / "idle"
        assert run_cli("simulate", path, "--out", out) == 0
        metrics = json.loads((out / "manifest.json").read_text())["runs"][0]["metrics"]
        assert metrics["truncated"] is True
        assert metrics["attempts"] == 0

    def test_max_slots_past_one_32_bit_word_accepted(self, tmp_path, small_config):
        """A slot's generator takes a slot of any size, so max_slots has no upper bound."""
        path = tmp_path / "long.cfg"
        path.write_text(small_config.read_text() + "max_slots = 4294967297\n")  # 2^32 + 1
        out = tmp_path / "long"
        assert run_cli("simulate", path, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["max_slots"] == 2**32 + 1
        assert manifest["runs"][0]["metrics"]["truncated"] is False

    def test_unknown_dataset_is_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("dataset = azure\npolicy = ff\ns = 1\n")
        assert run_cli("simulate", path, "--out", tmp_path / "x") == 2

    def test_nonexistent_config_is_config_error(self, tmp_path):
        assert run_cli("simulate", tmp_path / "missing.cfg", "--out", tmp_path / "x") == 2

    def test_out_of_range_value_rejected_before_any_output(self, tmp_path, capsys):
        table = tmp_path / "table.txt"  # a user table has no default fleet
        table.write_text("resources cpu mem\nhost 1 1 1\nflavor 0.5 0.5 2\n")
        weightless = tmp_path / "weightless.txt"
        weightless.write_text("resources cpu mem\nhost 1 1 0\nflavor 0.5 0.5 2\n")
        zero_capacity = tmp_path / "zero_capacity.txt"
        zero_capacity.write_text("resources cpu mem\nhost 1 0 1\nflavor 0.5 0 2\n")
        negative_class = tmp_path / "negative_class.txt"
        negative_class.write_text("resources cpu mem\nhost 1 1 1\nclass small -5\n"
                                  "flavor 0.1 0.1 0 small\nflavor 0.2 0.2 1\n")
        for name, text in [
            ("range", "preset = nfv\ndelta_hat = 2\n"),
            ("alpha", "preset = nfv\nalpha = 0\n"),
            ("period", "preset = nfv\nT = 0\n"),
            ("estimator", "preset = nfv\nestimator = exact\n"),
            ("arrival", "preset = nfv\narrival = bursty\n"),
            ("dataset", "dataset = azure\npolicy = ff\ns = 1\n"),
            ("fleet", f"dataset = {table}\npolicy = ff\ns = 1\n"),
            ("controller", "preset = nfv\ncontroller = true\n"),
            ("lifetime", "preset = nfv-mmpp\nlifetime = finite\n"),
            ("weight", f"dataset = {weightless}\nhosts = 3\npolicy = ff\ns = 1\n"),
            ("fixed-fleet", "preset = nfv\npolicy = ff\ns = 2\nestimator = oracle\nT = 1\n"),
            ("inf-rate", "preset = nfv\nlambda_a = inf\n"),
            ("huge-rate", "preset = nfv\nlambda_a = 1e300\n"),
            ("inf-departures", "preset = nfv-mmpp\nlambda_d = inf\n"),
            ("zero-capacity", f"dataset = {zero_capacity}\nhosts = 3\npolicy = wf\ns = 1\n"),
            ("class-count", f"dataset = {negative_class}\nhosts = 4\npolicy = ff\ns = 1\n"),
        ]:
            path = tmp_path / f"{name}.cfg"
            path.write_text(text)
            out = tmp_path / f"out-{name}"
            assert run_cli("simulate", path, "--out", out) == 2, name
            assert not out.exists(), name
            assert "running seed" not in capsys.readouterr().err, name

    @pytest.mark.parametrize("seeds", ["x", "0,,1", "1.5"])
    def test_malformed_seeds_rejected_before_any_output(self, tmp_path, small_config, seeds,
                                                        capsys):
        out = tmp_path / "out"
        assert run_cli("simulate", small_config, "--seeds", seeds, "--out", out) == 2
        assert not out.exists()
        assert "--seeds must be comma-separated integers" in capsys.readouterr().err

    def test_negative_seed_rejected_before_any_output(self, tmp_path, small_config, capsys):
        out = tmp_path / "out"
        assert run_cli("simulate", small_config, "--seeds=-1", "--out", out) == 2
        assert not out.exists()
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        path = tmp_path / "negative.cfg"
        path.write_text(small_config.read_text() + "seed = -3\n")
        assert run_cli("simulate", path, "--out", out) == 2
        assert not out.exists()
        assert "seed must be >= 0, got -3" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["0,0", "3,1,3"])
    def test_repeated_seed_rejected_before_any_output(self, tmp_path, small_config, seeds,
                                                      capsys):
        out = tmp_path / "out"
        assert run_cli("simulate", small_config, "--seeds", seeds, "--out", out) == 2
        assert not out.exists()
        assert f"--seeds repeats seed {seeds[0]}" in capsys.readouterr().err

    def test_user_table_named_like_a_bundled_dataset_has_no_default_fleet(self, tmp_path,
                                                                           capsys):
        table = tmp_path / "nfv.txt"
        table.write_text("resources cpu mem\nhost 1 1 1\nflavor 0.5 0.5 2\n")
        path = tmp_path / "run.cfg"
        path.write_text(f"dataset = {table}\npolicy = ff\ns = 1\n")
        out = tmp_path / "out"
        assert run_cli("simulate", path, "--out", out) == 2
        assert not out.exists()
        assert "set hosts explicitly" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["lambda_rank", "adaptive_threshold", "mmpp_rate_low",
                                     "mmpp_switch"])
    def test_fixed_constant_is_unknown_key_before_any_output(self, tmp_path, key, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(f"preset = nfv-mmpp\n{key} = 1\n")
        out = tmp_path / "out"
        assert run_cli("simulate", path, "--out", out) == 2
        assert not out.exists()
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("values", CONFIG_FILE_CASES)
    def test_config_file_sets_fields_as_make_config(self, tmp_path, values):
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        assert load_config(str(path)) == make_config(**values)

    def test_config_file_cases_set_every_field(self):
        assert set().union(*CONFIG_FILE_CASES) == {f.name for f in fields(ExperimentConfig)}

    def test_malformed_config_line_is_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("dataset nfv\n")
        assert run_cli("simulate", path, "--out", tmp_path / "x") == 2


class TestSizeHosts:
    def test_prints_count_and_detail(self, tmp_path, capsys):
        report = tmp_path / "sizing.csv"
        code = run_cli(
            "size-hosts", "nfv", "--replicas", 1, "--runs", 2,
            "--seed", 3, "--policies", "ff,random", "-o", report,
        )
        assert code == 0
        printed = int(capsys.readouterr().out.strip())
        lines = report.read_text().splitlines()
        assert lines[0] == "run,policy,hosts"
        assert len(lines) == 5  # 2 runs x 2 policies
        assert printed == min(int(line.split(",")[2]) for line in lines[1:])

    def test_deterministic_given_seed(self, capsys):
        assert run_cli("size-hosts", "nfv", "--replicas", 1, "--runs", 1, "--seed", 5) == 0
        first = capsys.readouterr().out
        assert run_cli("size-hosts", "nfv", "--replicas", 1, "--runs", 1, "--seed", 5) == 0
        assert capsys.readouterr().out == first

    def test_zero_runs_is_usage_error(self):
        assert run_cli("size-hosts", "nfv", "--runs", 0) == 2

    def test_negative_seed_is_usage_error(self, capsys):
        assert run_cli("size-hosts", "nfv", "--runs", 1, "--seed=-1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("policies", ["", " , "])
    def test_no_policies_is_usage_error(self, policies, capsys):
        assert run_cli("size-hosts", "nfv", "--runs", 1, "--policies", policies) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: size_hosts needs at least one policy\n"

    def test_ten_decimal_places_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "fine.txt"
        path.write_text("resources a b\nhost 1 1 1\nflavor 0.0000000001 0.5 1\n")
        assert run_cli("size-hosts", path, "--runs", 1) == 2
        assert capsys.readouterr().out == ""

    def test_negative_class_count_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "negative.txt"
        path.write_text("resources cpu mem\nhost 1 1 1\nclass small -5\n"
                        "flavor 0.1 0.1 0 small\nflavor 0.2 0.2 1\n")
        assert run_cli("size-hosts", path, "--runs", 1) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: negative:3: class counts must be >= 0, got -5\n"

    def test_flavor_no_host_shape_fits_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "unfit.txt"
        path.write_text("resources cpu mem\nhost 1 1 1\nflavor 2 0.5 1\n")
        assert run_cli("size-hosts", path, "--runs", 1) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unfit: flavor 2x0.5 fits no host shape\n"


class TestDatasets:
    def test_lists_embedded_tables(self, capsys):
        assert run_cli("datasets") == 0
        out = capsys.readouterr().out
        for name in ("nfv", "google", "amazon"):
            assert name in out
        assert "437" in out and "12477" in out and "1100" in out

    def test_shapes_print_in_table_units(self, capsys):
        assert run_cli("datasets") == 0
        assert capsys.readouterr().out == (
            "name,flavors,requests_per_replica,resources,host_shapes,default_fleet\n"
            "nfv,16,437,memory/storage,1x1:1,837\n"
            "google,8,12477,cpu/memory,1x2:1 2x1:1,5989\n"
            "amazon,15,1100,cpu/memory,1x2:1 2x1:1,876\n"
        )
