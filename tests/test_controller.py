"""Controller behavior: availability estimation, fleet sizing, invariants."""

import math

import numpy as np
import pytest

from apsr import (
    ApsrController,
    AvailabilityCensus,
    ClusterState,
    ConfigError,
    Flavor,
    FlavorCounters,
    estimate_k,
    max_paral,
    satisfy_sla,
)
from oracles import scan_max_paral


def counters_from(totals: dict[str, tuple[int, int]]) -> FlavorCounters:
    counters = FlavorCounters()
    for flavor_id, (queried, found) in totals.items():
        counters.record(flavor_id, queried, found)
    return counters


class TestEstimateK:
    def test_fully_available_fixed_point(self):
        counters = counters_from({"c1": (50, 50), "c2": (40, 40)})
        assert estimate_k(counters, prev_k=100.0, alpha=0.1, n=100, mode="min") == 100.0

    def test_min_mode_arithmetic(self):
        counters = counters_from({"c1": (50, 25), "c2": (40, 10)})
        result = estimate_k(counters, prev_k=30.0, alpha=0.1, n=100, mode="min")
        assert result == pytest.approx(29.5, abs=1e-12)

    def test_avg_mode_arithmetic(self):
        counters = counters_from({"c1": (50, 25), "c2": (40, 10)})
        result = estimate_k(counters, prev_k=30.0, alpha=0.1, n=100, mode="avg")
        assert result == pytest.approx(30.75, abs=1e-12)

    def test_unqueried_flavors_are_skipped(self):
        counters = counters_from({"c1": (50, 25), "rare": (0, 0)})
        result = estimate_k(counters, prev_k=50.0, alpha=1.0, n=100, mode="min")
        assert result == 50.0  # only c1 counts: 100 * 0.5

    def test_empty_window_returns_previous(self):
        assert estimate_k(FlavorCounters(), prev_k=42.0, alpha=0.5, n=100, mode="min") == 42.0

    def test_min_never_exceeds_avg(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            totals = {}
            for i in range(int(rng.integers(1, 6))):
                queried = int(rng.integers(1, 100))
                totals[f"c{i}"] = (queried, int(rng.integers(0, queried + 1)))
            counters = counters_from(totals)
            prev = float(rng.uniform(0, 100))
            alpha = float(rng.uniform(0.01, 1.0))
            low = estimate_k(counters, prev, alpha, 100, "min")
            high = estimate_k(counters, prev, alpha, 100, "avg")
            assert low <= high + 1e-12
            assert 0.0 <= low <= 100.0 and 0.0 <= high <= 100.0

    def test_validation(self):
        counters = FlavorCounters()
        with pytest.raises(ConfigError):
            estimate_k(counters, 1.0, 0.0, 10, "min")
        with pytest.raises(ConfigError):
            estimate_k(counters, 1.0, 0.5, 10, "median")

    def test_counter_validation(self):
        with pytest.raises(ValueError):
            FlavorCounters().record("c", 5, 6)


class TestControllerTick:
    def test_oracle_empty_cloud_maximizes_fleet(self):
        n = 120
        controller = ApsrController(n, 0.05, n, period=1, estimator="oracle")
        state = ClusterState([(10, 10)] * n)
        census = state.census([Flavor("a", (3, 3))])
        s, d = controller.tick(census=census)
        assert (s, d) == scan_max_paral(n, 0.05, n, n)

    def test_oracle_zero_availability_single_scheduler(self):
        controller = ApsrController(50, 0.05, 50, estimator="oracle")
        s, d = controller.tick(census=AvailabilityCensus({"a": 0}))
        assert (s, d) == (1, 50)
        assert controller.k_estimate == 0.0

    def test_min_mode_decays_geometrically_on_zero_observations(self):
        controller = ApsrController(100, 0.05, 100, alpha=0.1, estimator="min")
        previous = controller.k_estimate
        for _ in range(4):
            controller.counters.record("c1", 30, 0)
            controller.tick()
            assert controller.k_estimate == pytest.approx(0.9 * previous, rel=1e-12)
            previous = controller.k_estimate

    def test_counters_are_reset_by_tick(self):
        controller = ApsrController(100, 0.05, 100)
        controller.counters.record("c1", 10, 5)
        controller.tick()
        assert controller.counters.availability_ratios() == {}

    def test_budget_and_sla_compliance_over_random_ticks(self):
        rng = np.random.default_rng(17)
        n = 200
        controller = ApsrController(n, 0.05, n, alpha=0.3, estimator="min")
        for _ in range(40):
            queried = int(rng.integers(1, 400))
            controller.counters.record("c", queried, int(rng.integers(0, queried + 1)))
            s, d = controller.tick()
            assert s * d <= n
            assert 0.0 <= controller.k_estimate <= n
            if s > 1:
                k_used = int(math.floor(controller.k_estimate))
                assert satisfy_sla(n, 0.05, k_used, s, d)

    def test_initial_configuration_is_single_scheduler_full_budget(self):
        controller = ApsrController(300, 0.05, 300)
        assert (controller.s, controller.d) == (1, 300)
        assert controller.k_estimate == 300.0

    def test_due_on_period_boundaries(self):
        controller = ApsrController(10, 0.05, 10, period=10)
        assert controller.due(0) and controller.due(20)
        assert not controller.due(5)

    def test_fleet_cache_matches_fresh_computation(self):
        n = 150
        controller = ApsrController(n, 0.05, n, estimator="oracle")
        for k in (150, 80, 80, 20, 150):
            s, d = controller.tick(census=AvailabilityCensus({"a": k}))
            assert (s, d) == max_paral(n, 0.05, n, k)

    def test_estimator_mode_input_contracts(self):
        controller = ApsrController(10, 0.05, 10, estimator="oracle")
        with pytest.raises(ConfigError):
            controller.tick()
        controller = ApsrController(10, 0.05, 10, estimator="min")
        controller.counters.record("c", 10, 5)
        controller.tick()  # counter estimators read the counters and need no census
        assert controller.k_estimate == pytest.approx(0.1 * 5 + 0.9 * 10)

    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            ApsrController(0, 0.05, 10)
        with pytest.raises(ConfigError):
            ApsrController(10, 0.05, 10, period=0)
        with pytest.raises(ConfigError):
            ApsrController(10, 0.05, 10, alpha=1.5)
        with pytest.raises(ConfigError):
            ApsrController(10, 0.05, 10, estimator="exact")
