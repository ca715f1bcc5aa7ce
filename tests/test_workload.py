"""Datasets, traces, per-slot arrival counts, and host-fleet sizing."""

import itertools
import re
from collections import Counter

import numpy as np
import pytest

from apsr import (
    ConfigError,
    Simulation,
    arrivals,
    build_trace,
    fleet_capacities,
    load_dataset,
    make_config,
    size_hosts,
)
from apsr.workload import MAX_RATE, MMPP_RATE_LOW, MMPP_SWITCH, parse_dataset


class TestEmbeddedDatasets:
    def test_nfv_totals_and_cells(self):
        spec = load_dataset("nfv")
        assert spec.requests_per_replica == 437
        assert len(spec.flavors) == 16
        assert spec.flavor_counts["0.001x0.01"] == 14
        assert spec.flavor_counts["0.032x0.04"] == 165
        assert spec.decimals == 3  # values are integers in units of 10^-3
        assert spec.host_shapes == (((1000, 1000), 1),)
        assert next(f for f in spec.flavors if f.id == "0.001x0.54").demand == (1, 540)

    def test_google_totals_and_shapes(self):
        spec = load_dataset("google")
        assert spec.requests_per_replica == 12_477
        assert len(spec.flavors) == 8
        assert spec.flavor_counts["0.5x0.5"] == 6672
        assert spec.host_shapes == (((1000, 2000), 1), ((2000, 1000), 1))

    def test_amazon_classes(self):
        spec = load_dataset("amazon")
        assert spec.requests_per_replica == 1100
        assert spec.class_counts == {"small": 1000, "large": 100}
        assert len(spec.class_members("small")) == 9
        assert len(spec.class_members("large")) == 6
        # the 0.4-cpu flavor is large; everything below 0.4 cpu is small
        assert spec.flavor_classes["0.4x0.031"] == "large"
        assert all(
            float(f.id.split("x")[0]) < 0.4 for f in spec.class_members("small")
        )

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigError):
            load_dataset("azure")


class TestDatasetFiles:
    def test_user_file_round_trip(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text(
            "# comment\n"
            "resources cpu mem\n"
            "host 1 1 1\n"
            "flavor 0.5 0.25 3\n"
            "flavor 0.1 0.1 2\n"
        )
        spec = load_dataset(str(path))
        assert spec.name == "tiny"
        assert spec.requests_per_replica == 5
        assert spec.flavor_counts["0.5x0.25"] == 3

    def test_rewritten_file_is_read_again(self, tmp_path):
        """Each load parses the file as it is now, into a spec of its own."""
        path = tmp_path / "t.txt"
        path.write_text("resources cpu mem\nhost 1 1 1\nflavor 0.5 0.5 1\n")
        first = load_dataset(str(path))
        path.write_text("resources cpu mem\nhost 1 1 1\nflavor 0.25 0.25 1\n")
        second = load_dataset(str(path))
        assert [f.id for f in first.flavors] == ["0.5x0.5"]
        assert [f.id for f in second.flavors] == ["0.25x0.25"]
        assert second is not first

    @pytest.mark.parametrize(
        "text",
        [
            "flavor 0.5 0.25 3\n",  # resources line must come first
            "resources cpu mem\nhost 1 1 1\n",  # no flavors
            "resources cpu mem\nhost 1 1 1\nflavor 0.5 0.25 x\n",  # bad count
            "resources cpu mem\nhost 1 1 1\nflavor 0.5 0.25 0 small\n",  # undeclared class
            "resources cpu mem\nhost 1 1 1\nclass small 10\nflavor 0.5 0.25 1\n",  # empty class
            "resources cpu mem\nhost 1 1 1\nwhat 1\n",  # unknown keyword
        ],
    )
    def test_malformed_files_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_dataset(str(path))


class TestIntegerUnits:
    def test_scale_is_the_most_decimal_places_in_the_table(self):
        spec = parse_dataset("resources a b\nhost 1 2.5 1\nflavor 0.25 1E+1 1\n", "t")
        assert spec.decimals == 2
        assert spec.host_shapes == (((100, 250), 1),)
        assert spec.flavors[0].demand == (25, 1000)
        assert spec.flavors[0].id == "0.25x1E+1"  # ids stay the table's tokens

    def test_integer_table_keeps_unit_scale(self):
        spec = parse_dataset("resources a\nhost 4 1\nflavor 3 1\n", "t")
        assert (spec.decimals, spec.host_shapes, spec.flavors[0].demand) == (0, (((4,), 1),), (3,))

    @pytest.mark.parametrize(
        "text",
        [
            "resources a\nhost 1 1\nflavor 0.0000000001 1\n",  # 10 decimal places
            "resources a\nhost 9223372036854775808 1\nflavor 1 1\n",  # beyond int64
            "resources a\nhost 9223372036.854775808 1\nflavor 1 1\n",  # beyond int64 once scaled
            "resources a\nhost 1E+999999999 1\nflavor 1 1\n",
            "resources a\nhost inf 1\nflavor 1 1\n",
            "resources a\nhost -1 1\nflavor 0.5 1\n",
            "resources a\nhost 1 1\nflavor 0 1\n",  # all-zero demand
        ],
    )
    def test_unrepresentable_values_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_dataset(text, "bad")

    @pytest.mark.parametrize("weight", ["0", "-1"])
    def test_host_weight_below_one_rejected(self, weight):
        text = f"resources cpu mem\nhost 1 1 {weight}\nflavor 0.5 0.5 1\n"
        with pytest.raises(ConfigError, match=f"^t:2: host weight must be >= 1, got {weight}$"):
            parse_dataset(text, "t")

    @pytest.mark.parametrize("capacity", ["1 0", "0 1", "0.0 2"])
    def test_zero_capacity_coordinate_rejected(self, capacity):
        """A host's load divides by each capacity coordinate, so none may be zero."""
        text = f"resources cpu mem\nhost {capacity} 1\nflavor 0.5 0.5 1\n"
        message = f"t:2: host capacity coordinates must be positive, got 'host {capacity} 1'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_dataset(text, "t")

    def test_negative_class_count_rejected(self):
        text = "resources cpu mem\nhost 1 1 1\nclass small -5\nflavor 0.1 0.1 0 small\n"
        with pytest.raises(ConfigError, match="^t:3: class counts must be >= 0, got -5$"):
            parse_dataset(text, "t")

    def test_class_flavor_with_a_count_rejected(self):
        """A class-sampled flavor is drawn within its class only, so it carries count 0."""
        text = "resources cpu mem\nhost 1 1 1\nclass small 2\nflavor 0.1 0.1 3 small\n"
        with pytest.raises(ConfigError, match="^t:4: class-sampled flavors carry count 0, got 3$"):
            parse_dataset(text, "t")

    def test_nine_decimal_places_and_int64_edge_accepted(self):
        spec = parse_dataset(
            "resources a\nhost 9223372036.854775807 1\nflavor 0.000000001 1\n", "t"
        )
        assert spec.host_shapes == (((2**63 - 1,), 1),)
        assert spec.flavors[0].demand == (1,)

    def test_three_tenths_fill_a_three_tenths_host_exactly(self, tmp_path):
        # in binary floats 0.1 + 0.1 + 0.1 > 0.3, so the third request would not fit
        path = tmp_path / "tenths.txt"
        path.write_text("resources a\nhost 0.3 1\nflavor 0.1 3\n")
        spec = load_dataset(str(path))
        assert size_hosts(spec, 1, ("ff", "wf", "random"), runs=2, seed=0).hosts == 1
        sim = Simulation(make_config(dataset=str(path), hosts=1, policy="ff", schedulers=1))
        metrics = sim.run()
        assert (metrics.attempts, metrics.successes) == (3, 3)
        assert sim.state.available.tolist() == [[0]]
        assert sim.state.utilization() == 1.0


class TestBuildTrace:
    def test_default_replica_scale_lengths(self):
        assert len(build_trace(load_dataset("nfv"), 30, seed=0)) == 13_110
        assert len(build_trace(load_dataset("amazon"), 7, seed=0)) == 7_700
        assert len(build_trace(load_dataset("google"), 1, seed=0)) == 12_477

    def test_single_replica_flavor_multiplicity(self):
        trace = build_trace(load_dataset("nfv"), 1, seed=3)
        histogram = Counter(r.flavor.id for r in trace)
        assert histogram["0.001x0.01"] == 14
        assert histogram == {fid: c for fid, c in load_dataset("nfv").flavor_counts.items() if c}

    def test_histogram_scales_with_replicas(self):
        spec = load_dataset("google")
        histogram = Counter(r.flavor.id for r in build_trace(spec, 2, seed=1))
        assert histogram == {fid: 2 * c for fid, c in spec.flavor_counts.items()}

    def test_shuffle_is_measure_preserving(self):
        spec = load_dataset("nfv")
        a = build_trace(spec, 2, seed=10)
        b = build_trace(spec, 2, seed=11)
        assert [r.flavor.id for r in a] != [r.flavor.id for r in b]
        assert Counter(r.flavor.id for r in a) == Counter(r.flavor.id for r in b)

    def test_amazon_class_totals_per_replica(self):
        spec = load_dataset("amazon")
        trace = build_trace(spec, 3, seed=5)
        by_class = Counter(spec.flavor_classes[r.flavor.id] for r in trace)
        assert by_class == {"small": 3000, "large": 300}

    def test_request_ids_dense_and_ordered(self):
        trace = build_trace(load_dataset("nfv"), 1, seed=0)
        assert [r.id for r in trace] == list(range(len(trace)))

    def test_replicas_validated(self):
        with pytest.raises(ConfigError):
            build_trace(load_dataset("nfv"), 0, seed=0)


class TestArrivals:
    def test_total_equals_trace_length(self):
        counts = list(arrivals("poisson", 20.0, 13_110, seed=0))
        assert sum(counts) == 13_110
        assert all(c >= 0 for c in counts)
        assert len(counts) == pytest.approx(13_110 / 20, rel=0.15)

    def test_empirical_mean_converges(self):
        counts = list(arrivals("poisson", 20.0, 40_000, seed=1))
        # drop the truncated last slot from the mean
        counts = np.array(counts[:-1])
        se = np.sqrt(20.0 / counts.size)
        assert abs(counts.mean() - 20.0) <= 3 * se

    def test_zero_rate_rejected(self):
        with pytest.raises(ConfigError):
            next(arrivals("poisson", 0.0, 10, seed=0))

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), 1e300, 9.3e18])
    def test_rate_past_the_poisson_sampler_rejected(self, rate):
        with pytest.raises(ConfigError, match="arrival rate must be in"):
            next(arrivals("poisson", rate, 10, seed=0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown arrival process 'bursty'"):
            next(arrivals("bursty", 20.0, 10, seed=0))

    def test_empty_trace_yields_nothing(self):
        assert list(arrivals("poisson", 20.0, 0, seed=0)) == []

    def test_capped_read_is_the_head_of_the_full_read(self):
        """A run that stops after 50 slots reads the first 50 counts of the
        whole trace's draws; at a tiny rate those are all zero."""
        full = list(arrivals("poisson", 20.0, 13_110, seed=0))
        capped = list(itertools.islice(arrivals("poisson", 20.0, 13_110, seed=0), 50))
        assert capped == full[:50]
        tiny_rate = itertools.islice(arrivals("poisson", 1e-12, 13_110, seed=0), 50)
        assert list(tiny_rate) == [0] * 50

    def test_highest_rate_draws(self):
        assert list(arrivals("poisson", MAX_RATE, 10, seed=0)) == [10]

    def test_mmpp_switches_rate_after_fraction(self):
        counts = list(arrivals("mmpp", 20.0, 10_000, seed=2))
        cumulative = np.cumsum(counts)
        switch_slot = int(np.searchsorted(cumulative, MMPP_SWITCH * 10_000))
        head = np.array(counts[:switch_slot])
        tail = np.array(counts[switch_slot + 1 : -1])
        assert head.mean() > 3 * tail.mean()  # 20 vs 5 with slack
        assert tail.mean() == pytest.approx(MMPP_RATE_LOW, rel=0.2)


class TestFleetCapacities:
    def test_nfv_unit_hosts(self):
        assert fleet_capacities(load_dataset("nfv"), 3) == [(1000, 1000)] * 3

    def test_equal_proportions_exact_for_even_fleet(self):
        fleet = fleet_capacities(load_dataset("google"), 100)
        assert fleet.count((1000, 2000)) == 50
        assert fleet.count((2000, 1000)) == 50


class TestSizeHosts:
    def test_single_small_request_needs_one_host(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("resources a b\nhost 1 1 1\nflavor 0.3 0.3 1\n")
        assert size_hosts(load_dataset(str(path)), 1, ("ff",), runs=1, seed=0).hosts == 1

    def test_two_oversize_requests_need_two_hosts(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("resources a b\nhost 1 1 1\nflavor 0.6 0.6 2\n")
        assert size_hosts(load_dataset(str(path)), 1, ("ff",), runs=2, seed=0).hosts == 2

    def test_count_is_sufficient_and_deterministic(self):
        spec = load_dataset("nfv")
        result = size_hosts(spec, 1, ("ff", "random"), runs=2, seed=4)
        again = size_hosts(spec, 1, ("ff", "random"), runs=2, seed=4)
        assert result.hosts == again.hosts
        assert [r.hosts for r in result.runs] == [r.hosts for r in again.runs]
        # storage is the binding resource: one replica carries ~27.67 units
        assert result.hosts >= 28
        assert result.hosts == min(r.hosts for r in result.runs)

    def test_runs_validated(self):
        with pytest.raises(ConfigError):
            size_hosts(load_dataset("nfv"), 1, ("ff",), runs=0, seed=0)

    def test_negative_seed_is_config_error(self):
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            size_hosts(load_dataset("nfv"), 1, ("ff",), runs=1, seed=-1)

    def test_empty_policy_set_is_config_error(self):
        with pytest.raises(ConfigError, match="at least one policy"):
            size_hosts(load_dataset("nfv"), 1, (), runs=1, seed=0)

    def test_flavor_no_host_shape_fits_is_config_error(self, tmp_path):
        path = tmp_path / "unfit.txt"
        path.write_text("resources cpu mem\nhost 1 1 1\nflavor 2 0.5 1\n")
        with pytest.raises(ConfigError, match="flavor 2x0.5 fits no host shape"):
            size_hosts(load_dataset(str(path)), 1, ("ff",), runs=1, seed=0)
