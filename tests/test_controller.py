"""Controller behavior: availability estimation, fleet sizing, invariants."""

import math

import numpy as np
import pytest

from apsr import (
    ApsrController,
    ClusterState,
    ConfigError,
    Flavor,
    ModelError,
    max_paral,
)
from oracles import meets_sla, scan_max_paral

FLAVORS = [Flavor("a", (3, 3))]


def cluster_with_free(n: int, k: int) -> ClusterState:
    """n hosts of which exactly k can take a request of ``FLAVORS``."""
    return ClusterState([(10, 10)] * k + [(1, 1)] * (n - k))


IDLE = cluster_with_free(100, 100)


def window_controller(estimator: str, prev_k: float) -> ApsrController:
    """n = 100 and alpha = 0.1, its agents sampling d = 10 hosts, holding the
    window c1: 25 of 50 queried hosts found, c2: 10 of 40."""
    controller = ApsrController(100, 0.05, 100, alpha=0.1, estimator=estimator)
    controller.k_estimate, controller.d = prev_k, 10
    controller.record(["c1"] * 5 + ["c2"] * 4, [5, 5, 5, 5, 5, 2, 3, 2, 3])
    assert (controller.queried, controller.found) == ({"c1": 50, "c2": 40}, {"c1": 25, "c2": 10})
    return controller


class TestWindowEstimate:
    def test_fully_available_fixed_point(self):
        controller = ApsrController(100, 0.05, 100, alpha=0.1, estimator="min")
        controller.d = 10
        controller.record(["c1"] * 5 + ["c2"] * 4, [10] * 9)
        assert controller.tick(IDLE, FLAVORS) == 0
        assert controller.k_estimate == 100.0

    def test_min_mode_arithmetic(self):
        controller = window_controller("min", prev_k=30.0)
        assert controller.tick(IDLE, FLAVORS) == 0
        assert controller.k_estimate == pytest.approx(29.5, abs=1e-12)

    def test_avg_mode_arithmetic(self):
        controller = window_controller("avg", prev_k=30.0)
        assert controller.tick(IDLE, FLAVORS) == 0
        assert controller.k_estimate == pytest.approx(30.75, abs=1e-12)

    @pytest.mark.parametrize("estimator", ["min", "avg"])
    def test_empty_window_keeps_k(self, estimator):
        controller = ApsrController(100, 0.05, 100, alpha=0.5, estimator=estimator)
        controller.k_estimate = 42.0
        assert controller.tick(IDLE, FLAVORS) == 0
        assert controller.k_estimate == 42.0

    def test_min_never_exceeds_avg(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(1, 20))
            flavor_ids = [f"c{int(rng.integers(0, 5))}" for _ in range(int(rng.integers(1, 30)))]
            found = rng.integers(0, d + 1, size=len(flavor_ids)).tolist()
            prev = float(rng.uniform(0, 100))
            alpha = float(rng.uniform(0.01, 1.0))
            low, high = (ApsrController(100, 0.05, 100, alpha=alpha, estimator=mode)
                         for mode in ("min", "avg"))
            for controller in (low, high):
                controller.k_estimate, controller.d = prev, d
                controller.record(flavor_ids, found)
                controller.tick(IDLE, FLAVORS)
            assert low.k_estimate <= high.k_estimate + 1e-12
            assert 0.0 <= low.k_estimate <= 100.0 and 0.0 <= high.k_estimate <= 100.0

    def test_each_decision_charges_d_queries(self):
        controller = ApsrController(100, 0.05, 100)
        controller.d = 7
        controller.record(["c1", "c2", "c1"], [0, 7, 3])
        assert controller.queried == {"c1": 14, "c2": 7}
        assert controller.found == {"c1": 3, "c2": 7}

    @pytest.mark.parametrize("found", [6, -1])
    def test_found_outside_zero_to_d_rejected(self, found):
        controller = ApsrController(100, 0.05, 100)
        controller.d = 5
        with pytest.raises(ValueError):
            controller.record(["c"], [found])


class TestOracle:
    def test_record_is_ignored_and_tick_reads_the_census(self):
        controller = ApsrController(60, 0.05, 60, estimator="oracle")
        controller.record(["a", "a"], [3, 60])
        assert (controller.queried, controller.found) == ({}, {})
        state = cluster_with_free(60, 23)
        assert controller.tick(state, FLAVORS) == 60
        assert controller.k_estimate == 23.0 == state.census(FLAVORS).min_available

    def test_empty_cloud_maximizes_fleet(self):
        n = 120
        controller = ApsrController(n, 0.05, n, period=1, estimator="oracle")
        controller.tick(cluster_with_free(n, n), FLAVORS)
        assert (controller.s, controller.d) == scan_max_paral(n, 0.05, n, n)

    @pytest.mark.parametrize("flavors", [FLAVORS, [*FLAVORS, Flavor("huge", (11, 11))]])
    def test_zero_availability_single_scheduler(self, flavors):
        controller = ApsrController(50, 0.05, 50, estimator="oracle")
        controller.tick(cluster_with_free(50, 0), flavors)
        assert (controller.s, controller.d) == (1, 50)
        assert controller.k_estimate == 0.0

    def test_flavor_that_fits_no_host_leaves_the_fleet_to_the_others(self):
        """Requests of a flavor that no host fits are declined whatever the
        fleet, so k is the least count among the flavors that still fit."""
        n = 100
        flavors = [*FLAVORS, Flavor("small", (1, 1)), Flavor("huge", (11, 11))]
        state = cluster_with_free(n, 30)
        assert state.census(flavors).per_flavor == {"a": 30, "small": 100, "huge": 0}
        controller = ApsrController(n, 0.05, n, estimator="oracle")
        assert controller.tick(state, flavors) == n
        assert controller.k_estimate == 30.0
        assert (controller.s, controller.d) == max_paral(n, 0.05, n, 30)
        assert controller.s > 1


class TestControllerTick:
    def test_min_mode_decays_geometrically_on_zero_observations(self):
        controller = ApsrController(100, 0.05, 100, alpha=0.1, estimator="min")
        previous = controller.k_estimate
        for _ in range(4):
            controller.record(["c1"] * 3, [0] * 3)
            controller.tick(IDLE, FLAVORS)
            assert controller.k_estimate == pytest.approx(0.9 * previous, rel=1e-12)
            previous = controller.k_estimate

    def test_window_is_reset_by_tick(self):
        controller = ApsrController(100, 0.05, 100)
        controller.record(["c1"], [5])
        controller.tick(IDLE, FLAVORS)
        assert (controller.queried, controller.found) == ({}, {})

    def test_budget_and_sla_compliance_over_random_ticks(self):
        rng = np.random.default_rng(17)
        n = 200
        controller = ApsrController(n, 0.05, n, alpha=0.3, estimator="min")
        for _ in range(40):
            decisions = int(rng.integers(1, 10))
            controller.record(["c"] * decisions,
                              rng.integers(0, controller.d + 1, size=decisions).tolist())
            controller.tick(IDLE, FLAVORS)
            s, d = controller.s, controller.d
            assert s * d <= n
            assert 0.0 <= controller.k_estimate <= n
            if s > 1:
                k_used = int(math.floor(controller.k_estimate))
                assert meets_sla(n, 0.05, k_used, s, d)

    def test_initial_configuration_is_single_scheduler_full_budget(self):
        controller = ApsrController(300, 0.05, 300)
        assert (controller.s, controller.d) == (1, 300)
        assert controller.k_estimate == 300.0

    def test_due_on_period_boundaries(self):
        controller = ApsrController(10, 0.05, 10, period=10)
        assert controller.due(0) and controller.due(20)
        assert not controller.due(5)

    def test_tick_sizes_the_fleet_with_max_paral(self):
        n = 150
        controller = ApsrController(n, 0.05, n, estimator="oracle")
        for k in (150, 80, 80, 20, 150):
            controller.tick(cluster_with_free(n, k), FLAVORS)
            assert (controller.s, controller.d) == max_paral(n, 0.05, n, k)

    def test_estimator_mode_input_contracts(self):
        controller = ApsrController(10, 0.05, 10, estimator="oracle")
        with pytest.raises(ModelError):
            controller.tick(IDLE, [])  # a census over no flavors has no minimum
        controller = ApsrController(10, 0.05, 10, estimator="min")
        controller.record(["c"], [5])
        controller.tick(IDLE, [])  # window estimators read the window and take no census
        assert controller.k_estimate == pytest.approx(0.1 * 5 + 0.9 * 10)

    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            ApsrController(0, 0.05, 10)
        with pytest.raises(ConfigError, match="^period must be"):
            ApsrController(10, 0.05, 10, period=0)
        with pytest.raises(ConfigError, match="^alpha must be"):
            ApsrController(10, 0.05, 10, alpha=1.5)
        with pytest.raises(ConfigError, match="^estimator must be"):
            ApsrController(10, 0.05, 10, estimator="exact")
