"""Sampling-game statistics: closed forms against enumeration and Monte Carlo."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import apsr.ballsbins
from apsr import (
    ApsrController,
    BallsBinsParams,
    ConfigError,
    expected_happy,
    max_paral,
    sigma,
    simulate_balls_and_bins,
)
from apsr.ballsbins import pick_distinct
from oracles import (
    direct_expected_happy,
    enumerated_expected_happy,
    meets_sla,
    replay_balls_and_bins,
    scan_max_paral,
)


class TestSigma:
    def test_all_bins_available(self):
        assert sigma(100, 100, 1) == 1.0

    def test_no_bin_available(self):
        assert sigma(100, 0, 5) == 0.0

    def test_half_available_two_samples(self):
        # all 100^2 sample pairs, counting pairs that hit >= 1 of 50 available
        assert sigma(100, 50, 2) == 0.75

    def test_zero_samples_never_hit(self):
        assert sigma(10, 10, 0) == 0.0

    @pytest.mark.parametrize("n,k,d,message", [
        (0, 0, 1, "^need at least one bin, got n=0$"),
        (10, 11, 1, r"^available bins k=11 outside \[0, 10\]$"),
        (10, -1, 1, r"^available bins k=-1 outside \[0, 10\]$"),
        (10, 5, -1, "^samples per agent must be >= 0, got d=-1$"),
    ])
    def test_range_validation(self, n, k, d, message):
        with pytest.raises(ValueError, match=message):
            sigma(n, k, d)


class TestExpectedHappy:
    def test_no_available_bins(self):
        assert expected_happy(BallsBinsParams(10, 0, 4, 3)) == 0.0

    def test_lone_agent_all_available(self):
        assert expected_happy(BallsBinsParams(10, 10, 1, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_lone_host_always_wins_one(self):
        # n = k = 1: sigma = 1, the closed form's base 1 - sigma/k is exactly 0
        for s in (1, 2, 7, 1000):
            for d in (1, 3, 50):
                assert expected_happy(BallsBinsParams(1, 1, s, d)) == 1.0

    def test_closed_form_matches_binomial_sum(self):
        for n in (10, 837, 5989):
            for k in (1, n // 7, n // 2, n):
                for d in (1, 3, 20, 200):
                    for s in (1, 2, 10, 100, 1000):
                        direct = direct_expected_happy(n, k, s, d)
                        value = expected_happy(BallsBinsParams(n, k, s, d))
                        assert value == pytest.approx(direct, rel=1e-11), (n, k, d, s)

    def test_small_contended_case(self):
        assert expected_happy(BallsBinsParams(4, 2, 2, 1)) == pytest.approx(0.875, abs=1e-15)

    def test_matches_enumeration_on_spot_checks(self):
        for n, k, d, s in [(4, 2, 1, 2), (5, 3, 2, 3), (6, 4, 3, 2), (3, 1, 2, 3)]:
            exact = float(enumerated_expected_happy(n, k, d, s))
            assert expected_happy(BallsBinsParams(n, k, s, d)) == pytest.approx(exact, abs=1e-12)

    def test_bounds_monotonicity_grid(self):
        for n in (5, 20, 60):
            for k in (0, 1, n // 3, n):
                for d in (1, 2, 6):
                    for s in (1, 3, 9):
                        value = expected_happy(BallsBinsParams(n, k, s, d))
                        assert 0.0 <= value <= min(s, k) + 1e-12
                        if k < n:
                            assert expected_happy(BallsBinsParams(n, k + 1, s, d)) >= value - 1e-12
                        assert expected_happy(BallsBinsParams(n, k, s, d + 1)) >= value - 1e-12


class TestMeetsSla:
    """The SLA fleet sizing promises, ``expected_happy >= s * (1 - delta_hat)``,
    read exactly at its edges."""

    def test_lone_agent_everything_available(self):
        assert meets_sla(50, 0.0, 50, 1, 1)

    def test_nothing_available_fails_tight_target(self):
        assert not meets_sla(50, 0.05, 0, 1, 10)


class TestMaxParal:
    def test_no_available_bins_collapses_to_one_scheduler(self):
        assert max_paral(100, 0.05, 100, 0) == (1, 100)

    @pytest.mark.parametrize("n,delta_hat,budget,k,message", [
        (0, 0.05, 10, 0, "^need at least one bin, got n=0$"),
        (10, 0.05, 10, 11, r"^available bins k=11 outside \[0, 10\]$"),
        (10, 0.05, 10, -1, r"^available bins k=-1 outside \[0, 10\]$"),
        (10, 0.05, 0, 5, "^budget must be >= 1, got 0$"),
        (10, 1.5, 10, 5, r"^delta_hat must be in \[0, 1\], got 1.5$"),
    ])
    def test_range_validation(self, n, delta_hat, budget, k, message):
        with pytest.raises(ValueError, match=message):
            max_paral(n, delta_hat, budget, k)

    def test_vacuous_target_caps_at_budget(self):
        assert max_paral(100, 1.0, 100, 1) == (100, 1)

    def test_agrees_with_scan_oracle_on_empty_cloud(self):
        n = 279
        assert max_paral(n, 0.05, n, n) == scan_max_paral(n, 0.05, n, n)

    @pytest.mark.parametrize("budget", [837, 250])
    def test_agrees_with_scan_oracle_at_every_k(self, budget):
        n = 837
        for k in range(n + 1):
            assert max_paral(n, 0.05, budget, k) == scan_max_paral(n, 0.05, budget, k), k

    def test_greedy_is_the_maximum(self):
        """On acceptance criterion 4's instances, no fleet larger than the
        greedy's s meets the SLA: the greedy rejects s + 1 itself, and every s'
        in [s + 2, budget] fails too, so stopping at the first failure is the
        largest fleet."""
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(1, 1001))
            budget = int(rng.integers(1, n + 1))
            k = int(rng.integers(0, n + 1))
            delta_hat = float(rng.uniform(0.0, 0.2))
            s, _ = max_paral(n, delta_hat, budget, k)
            for larger in range(s + 2, budget + 1):
                assert not meets_sla(n, delta_hat, k, larger, budget // larger), (
                    n, delta_hat, budget, k, larger)

    def test_random_instances_properties_and_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(120):
            n = int(rng.integers(1, 400))
            budget = int(rng.integers(1, n + 1))
            k = int(rng.integers(0, n + 1))
            delta_hat = float(rng.uniform(0.0, 0.2))
            s, d = max_paral(n, delta_hat, budget, k)
            assert s * d <= budget
            assert d == budget // s
            if s > 1:
                assert meets_sla(n, delta_hat, k, s, d)
            if s + 1 <= budget:
                assert not meets_sla(n, delta_hat, k, s + 1, budget // (s + 1))
            assert (s, d) == scan_max_paral(n, delta_hat, budget, k)


class TestSimulation:
    def test_no_available_bins_yields_zero(self):
        result = simulate_balls_and_bins(BallsBinsParams(10, 0, 3, 2), trials=50, seed=0)
        assert result.potentially_happy_total / result.trials == 0.0
        assert result.mean_happy == 0.0

    def test_lone_agent_all_available_is_deterministic(self):
        result = simulate_balls_and_bins(BallsBinsParams(10, 10, 1, 1), trials=400, seed=0)
        assert result.mean_happy == 1.0
        assert result.happy_stderr == 0.0

    def test_matches_analysis_within_three_stderr(self):
        params = BallsBinsParams(4, 2, 2, 1)
        result = simulate_balls_and_bins(params, trials=200_000, seed=5)
        assert abs(result.mean_happy - 0.875) <= 3 * result.happy_stderr
        # potentially happy agents are Binomial(s, sigma)
        expected_ph = params.s * sigma(params.n, params.k, params.d)
        se = math.sqrt(params.s * 0.5 * 0.5 / result.trials)
        mean_potentially_happy = result.potentially_happy_total / result.trials
        assert abs(mean_potentially_happy - expected_ph) <= 3 * se

    def test_selection_counts_total_potentially_happy(self):
        result = simulate_balls_and_bins(BallsBinsParams(8, 3, 4, 2), trials=20_000, seed=9)
        assert result.selection_counts.sum() == result.potentially_happy_total

    @pytest.mark.parametrize("n, k, s, d", [
        (12, 5, 4, 3), (6, 6, 3, 2), (20, 1, 5, 4), (9, 4, 1, 1),
        # either side of the int16 draw cut: a wrong cut wraps bins below 0
        *((n, k, 2, 3) for n in (2**15 - 1, 2**15, 2**15 + 1) for k in (n, n - 1)),
    ])
    def test_totals_match_plain_replay_of_the_draws(self, n, k, s, d, monkeypatch):
        """At every block size: the default, one trial, seven and a thousand.
        The replay draws each block's bins in one call, then its uniforms."""
        trials = 2 * 1000 + 700  # two full blocks of a thousand, then a short one
        for block in (None, 1, 7, 1000):  # None: the default
            if block is not None:
                monkeypatch.setattr(apsr.ballsbins, "_BLOCK_DRAWS", block * s * d)
            replayed = replay_balls_and_bins(
                n, k, s, d, trials, (n, k), max(1, apsr.ballsbins._BLOCK_DRAWS // (s * d)))
            result = simulate_balls_and_bins(BallsBinsParams(n, k, s, d), trials, (n, k))
            assert result.trials == trials
            assert (result.potentially_happy_total, result.happy_total, result.happy_sq_total,
                    result.selection_counts.tolist()) == replayed, block

    @pytest.mark.parametrize("n, dtype", [
        (1, np.int16), (2**15 - 1, np.int16), (2**15, np.int32),
        (2**31 - 1, np.int32), (2**31, np.int64),
    ])
    def test_draws_bins_at_the_narrowest_dtype_holding_n(self, n, dtype, monkeypatch):
        """Bins 0..n-1 and the sentinel k <= n fit the draws' dtype; the int32
        cut is not seen by the replay, whose int32 and int64 draws agree."""
        drawn = []
        default_rng = np.random.default_rng

        class Spy:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def integers(self, *args, **kwargs):
                drawn.append(self.rng.integers(*args, **kwargs))
                return drawn[-1]

            def __getattr__(self, name):
                return getattr(self.rng, name)

        monkeypatch.setattr(np.random, "default_rng", Spy)
        result = simulate_balls_and_bins(BallsBinsParams(n, 1, 2, 3), 5, n)
        assert result.trials == 5 and result.happy_total <= result.potentially_happy_total
        assert [a.dtype for a in drawn] == [np.dtype(dtype)]
        assert 0 <= drawn[0].min() and drawn[0].max() < n

    def test_one_block_bounds_the_working_set(self):
        """The game's traced peak is one block's draws and temporaries, within
        four times a block's int32 draws whatever the trial count."""
        params = BallsBinsParams(837, 350, 28, 8)  # fleet-analysis' k = 350 game
        simulate_balls_and_bins(params, 10, 0)  # lazy set-up out of the trace
        tracemalloc.start()
        try:
            simulate_balls_and_bins(params, 100_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * apsr.ballsbins._BLOCK_DRAWS * np.dtype(np.int32).itemsize


class TestPickDistinct:
    @given(
        draws=arrays(st.sampled_from([np.int16, np.int32, np.int64]),
                     array_shapes(min_dims=2, max_dims=4, min_side=0, max_side=5),
                     elements=st.integers(0, 9)),
        sentinel=st.integers(0, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(draws=np.zeros((3, 0), np.int64), sentinel=2, seed=0)  # d = 0
    @example(draws=np.zeros((0, 4), np.int32), sentinel=2, seed=0)  # zero rows
    @example(draws=np.full((2, 3), 5, np.int64), sentinel=2, seed=0)  # all above the sentinel
    def test_matches_plain_loop(self, draws, sentinel, seed):
        """Values at or above the sentinel are unavailable; each row picks the
        distinct available value of its rank, or the sentinel if it has none.
        The rows arrive sorted and are left as they are."""
        draws.sort(axis=-1)
        before = draws.copy()
        shape, d = draws.shape[:-1], draws.shape[-1]
        rows = draws.reshape(math.prod(shape), d).tolist()
        calls = []

        def rank(distinct):
            ranks = (np.random.default_rng(seed).random(distinct.shape) * distinct).astype(np.int64)
            calls.append((distinct.copy(), ranks))
            return ranks

        picks = pick_distinct(draws, sentinel, rank)
        assert np.array_equal(draws, before)
        assert len(calls) == 1
        distinct, ranks = calls[0]
        assert picks.shape == distinct.shape == shape
        assert picks.dtype == draws.dtype
        for row, count, r, pick in zip(rows, distinct.ravel().tolist(), ranks.ravel().tolist(),
                                       picks.ravel().tolist()):
            seen = sorted({v for v in row if v < sentinel})
            assert count == len(seen)
            assert pick == (seen[r] if seen else sentinel)


class TestParamTypes:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            BallsBinsParams(0, 0, 1, 1)
        with pytest.raises(ValueError):
            BallsBinsParams(5, 6, 1, 1)
        with pytest.raises(ValueError):
            BallsBinsParams(5, 2, 0, 1)
        with pytest.raises(ValueError):
            BallsBinsParams(5, 2, 1, -1)

    def test_sla_budget_validation(self):
        # The SLA budget (delta_hat, budget) is checked where it is used: by the controller.
        with pytest.raises(ConfigError):
            ApsrController(10, 1.2, 10)
        with pytest.raises(ConfigError):
            ApsrController(10, 0.05, 0)
        assert ApsrController(10, 0.05, 100).budget == 100
