"""Simulation engine: slot mechanics, accounting, determinism, causality."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import apsr.engine
from apsr import (
    ApsrController,
    ConfigError,
    ExperimentConfig,
    HostView,
    Simulation,
    arrivals,
    choose,
    make_config,
    max_paral,
    run_experiment,
)
from apsr.policies import FULL_SNAPSHOT_KINDS
from apsr.workload import MAX_RATE
from oracles import replay_sampling_decisions


@pytest.fixture
def tiny_dataset(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(
        "resources cpu mem\n"
        "host 1 1 1\n"
        "flavor 0.6 0.6 2\n"
    )
    return str(path)


def small_nfv(**overrides) -> ExperimentConfig:
    base = dict(dataset="nfv", replicas=1, hosts=40, seed=0)
    base.update(overrides)
    return make_config(**base)


class TestConfigValidation:
    def test_exactly_one_of_fixed_or_controller(self):
        """The policy alone decides: 'apsr' is controller-managed, the rest fixed."""
        assert Simulation(small_nfv()).controller is not None
        assert Simulation(small_nfv(policy="ff", schedulers=5)).controller is None
        with pytest.raises(ConfigError, match="schedulers"):
            make_config(dataset="nfv", policy="random")
        with pytest.raises(ConfigError, match="schedulers"):
            ExperimentConfig(dataset="nfv", policy="ff", schedulers=None)

    def test_apsr_policy_requires_controller(self):
        with pytest.raises(ConfigError, match="schedulers"):
            make_config(dataset="nfv", policy="apsr", schedulers=4)
        with pytest.raises(ConfigError, match="unknown config keys"):
            make_config(dataset="nfv", policy="random", schedulers=4, controller=True)

    @pytest.mark.parametrize("key, value", [
        ("estimator", "oracle"), ("period", 1), ("alpha", 0.5), ("delta_hat", 0.1), ("budget", 64),
    ])
    def test_fixed_fleet_rejects_controller_settings(self, key, value):
        """An ff fleet reads no controller setting, so one it would only echo is
        an error; the default value is accepted, and apsr reads the setting."""
        with pytest.raises(ConfigError, match=f"never reads {key} "):
            make_config("nfv", policy="ff", schedulers=2, **{key: value})
        default = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}[key]
        make_config("nfv", policy="ff", schedulers=2, **{key: default})
        assert getattr(make_config("nfv", **{key: value}), key) == value

    @pytest.mark.parametrize("key", ["lambda_rank", "adaptive_threshold", "mmpp_rate_low",
                                     "mmpp_switch"])
    def test_fixed_constants_are_unknown_keys(self, key):
        """The candidate-set size, adaptive's threshold and the mmpp low rate and
        switch point are module constants, not settings."""
        with pytest.raises(ConfigError, match="unknown config keys"):
            make_config("nfv-mmpp", **{key: 1})

    def test_budget_forms(self):
        assert make_config(dataset="nfv", budget="50%", hosts=100).resolve_budget(100) == 50
        assert make_config(dataset="nfv", budget=64).resolve_budget(837) == 64
        assert make_config(dataset="nfv").resolve_budget(837) == 837
        with pytest.raises(ConfigError):
            make_config(dataset="nfv", budget="150%")
        with pytest.raises(ConfigError):
            make_config(dataset="nfv", budget="fifty")

    @pytest.mark.parametrize("key, value", [
        ("delta_hat", 2.0), ("delta_hat", -0.1), ("alpha", 0.0), ("alpha", 1.5),
        ("period", 0), ("lambda_a", 0.0), ("delta_hat", float("nan")),
        ("lambda_a", float("inf")), ("lambda_a", 1e300), ("lambda_a", 9.3e18),
        ("lambda_a", float("nan")), ("lambda_d", float("inf")), ("lambda_d", 9.3e18),
        ("lambda_d", 0.0), ("seed", -1), ("max_slots", 0),
    ])
    def test_out_of_range_numbers_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            make_config("nfv-mmpp", **{key: value})

    def test_max_slots_has_no_upper_bound(self):
        """``default_rng((seed, 3, slot))`` takes a slot of any size."""
        for max_slots in (2**32, 2**32 + 1, 2**64 + 7):
            assert make_config("nfv", max_slots=max_slots).max_slots == max_slots

    def test_rates_reach_the_poisson_sampler_limit(self):
        """Both rates may be as high as numpy's Poisson sampler takes."""
        config = small_nfv(arrival="mmpp", lambda_a=MAX_RATE, lambda_d=MAX_RATE)
        assert run_experiment(config).attempts == 437

    def test_unknown_preset_and_keys(self):
        with pytest.raises(ConfigError):
            make_config("table-9")
        with pytest.raises(ConfigError):
            make_config("nfv", flux_capacitor=1)

    def test_unknown_dataset_surfaces_at_build(self):
        with pytest.raises(ConfigError):
            Simulation(make_config(dataset="azure", hosts=10))


class TestSlotMechanics:
    def test_single_scheduler_never_collides(self):
        metrics = run_experiment(small_nfv(policy="ff", schedulers=1))
        assert metrics.declines_collision == 0
        assert metrics.attempts == 437

    def test_two_ff_schedulers_one_slot_force_collision(self, tiny_dataset):
        sim = Simulation(
            make_config(dataset=tiny_dataset, hosts=1, policy="ff", schedulers=2, seed=0)
        )
        # the whole trace arrives in slot 0, so both requests are pending together
        sim._arrivals = iter([len(sim.trace)])
        sim.run_slot()
        m = sim.metrics
        assert (m.attempts, m.successes, m.declines_collision) == (2, 1, 1)

    def test_accounting_identity_every_slot(self):
        metrics = run_experiment(small_nfv(policy="wfr", schedulers=6, seed=3))
        series = metrics.series
        for t in range(metrics.slots):
            declined = series.attempts[t] - series.successes[t]
            assert declined >= 0
        assert metrics.attempts == (
            metrics.successes + metrics.declines_no_host + metrics.declines_collision
        )
        assert metrics.attempts == sum(series.attempts)

    def test_full_snapshot_query_accounting(self):
        config = small_nfv(policy="random", schedulers=1)
        metrics = run_experiment(config)
        assert metrics.scheduler_queries == metrics.attempts * 40
        assert metrics.controller_queries == 0

    def test_sampling_query_budget_never_exceeded(self):
        config = small_nfv(seed=5)  # controller-managed apsr, budget = hosts
        metrics = run_experiment(config)
        assert max(metrics.series.queries) <= 40
        assert metrics.controller_queries == 0  # min estimator queries nothing

    def test_oracle_census_charged_to_controller(self):
        config = small_nfv(estimator="oracle", period=1, seed=5)
        metrics = run_experiment(config)
        assert metrics.controller_queries == metrics.slots * 40

    def test_oracle_runs_record_no_counters(self):
        """An oracle tick reads the census alone, so its agents leave the window empty."""
        sim = Simulation(small_nfv(estimator="oracle", period=1, seed=5))
        for _ in range(5):
            sim.run_slot()
        assert sim.metrics.attempts > 0
        assert (sim.controller.queried, sim.controller.found) == ({}, {})

    def test_oracle_fleet_follows_the_placeable_flavors(self, monkeypatch):
        """On nfv the two 0.54-memory flavors fit no host once the cluster
        fills; every tick's fleet is still sized at the least positive count."""
        ticks = []
        tick = ApsrController.tick

        def recorded(controller, state, flavors):
            per_flavor = state.census(flavors).per_flavor
            queries = tick(controller, state, flavors)
            ticks.append((per_flavor, controller.s, controller.d))
            return queries

        monkeypatch.setattr(ApsrController, "tick", recorded)
        sim = Simulation(make_config("nfv", estimator="oracle", period=1, seed=0))
        sim.run()
        n, delta_hat, budget = sim.state.n, sim.config.delta_hat, sim.budget
        assert len(ticks) == sim.metrics.slots
        for per_flavor, s, d in ticks:
            k = min((count for count in per_flavor.values() if count > 0), default=0)
            assert (s, d) == max_paral(n, delta_hat, budget, k)
        assert any(0 in per_flavor.values() and s > 1 for per_flavor, s, _ in ticks)

    def test_truncation_flag(self):
        metrics = run_experiment(small_nfv(policy="ff", schedulers=1, max_slots=5))
        assert metrics.truncated
        assert metrics.slots == 5

    def test_arrivals_drawn_for_at_most_max_slots(self):
        """At a rate too low to bring a request in within max_slots, the run
        stops there truncated: no slot past max_slots draws its arrivals."""
        metrics = run_experiment(make_config("nfv", lambda_a=1e-12, max_slots=50))
        assert metrics.truncated
        assert (metrics.slots, metrics.attempts) == (50, 0)

    def test_truncated_run_attempts_the_first_counts_drawn(self):
        """A run cut at max_slots attempts exactly the requests of the first
        max_slots counts its config's arrival stream yields."""
        config = small_nfv(policy="ff", schedulers=1_000, arrival="mmpp", max_slots=12)
        sim = Simulation(config)
        metrics = sim.run()
        counts = arrivals(config.arrival, config.lambda_a, len(sim.trace),
                          (config.seed, apsr.engine._ARRIVALS))
        assert metrics.truncated
        assert metrics.series.attempts == list(itertools.islice(counts, 12))

    def test_finite_lifetimes_recycle_capacity(self, tmp_path):
        path = tmp_path / "churn.txt"
        path.write_text("resources cpu mem\nhost 1 1 1\nflavor 0.5 0.5 40\n")
        config = make_config(
            dataset=str(path),
            hosts=4,
            policy="random",
            schedulers=2,
            lambda_d=3.0,
            lambda_a=2.0,
            seed=1,
        )
        metrics = run_experiment(config)
        # 40 requests through a 4-host cluster only works if departures free space
        assert metrics.successes > 8


class TestDeterminism:
    def test_identical_config_identical_metrics(self):
        config = small_nfv(seed=9)
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.to_dict() == b.to_dict()
        assert a.series == b.series

    def test_seed_changes_outcome(self):
        a = run_experiment(small_nfv(policy="random", schedulers=4, seed=1))
        b = run_experiment(small_nfv(policy="random", schedulers=4, seed=2))
        assert a.series.utilization != b.series.utilization


class TestSnapshotCausality:
    @staticmethod
    def decide_before_and_after_placing(sim, count):
        """The slot's decisions on its slot-start snapshot, made before and again
        after those decisions were placed into the state."""
        requests = sim.trace[sim._attempted:sim._arrived][:count]
        assert len(requests) >= 2
        snapshot = sim.state.available.copy()
        before = sim.decide(HostView(snapshot.copy(), sim.state.capacity), sim.slot, requests)
        placed = sum(sim.state.place(r, host) for r, host in zip(requests, before)
                     if host is not None)
        assert placed >= 1 and not np.array_equal(sim.state.available, snapshot)
        after = sim.decide(HostView(snapshot, sim.state.capacity), sim.slot, requests)
        return before, after

    def test_decisions_read_only_the_slot_start_snapshot(self):
        """A slot's decisions depend only on the view it is given, the slot and
        its requests, never on the state the slot's placements change."""
        sim = Simulation(small_nfv(policy="random", schedulers=8, seed=13))
        for _ in range(6):  # advance a few slots to reach an interesting state
            sim.run_slot()
        before, after = self.decide_before_and_after_placing(sim, 8)
        assert before == after

    def test_apsr_decisions_read_only_the_slot_start_snapshot_too(self):
        sim = Simulation(small_nfv(seed=21))
        for _ in range(4):
            sim.run_slot()
        before, after = self.decide_before_and_after_placing(sim, sim.controller.s)
        assert before == after


class TestSamplingDecisions:
    def test_decide_matches_plain_replay_of_the_slot_generator(self):
        """Every apsr decision equals a plain replay of the slot's generator: each
        agent's d-sample in turn, then each agent's integers(distinct) in turn."""
        sim = Simulation(small_nfv(hosts=20, seed=5))  # too few hosts: declines too
        seen = []

        def spy(view, slot, requests):
            targets = Simulation.decide(sim, view, slot, requests)
            seen.append((view.available.tolist(), slot, requests, sim.controller.d, targets))
            return targets

        sim.decide = spy
        sim.run()
        checked = [entry for entry in seen if entry[2]]
        assert len(checked) >= 20
        assert any(None in targets for *_, targets in checked)
        assert any(len(requests) >= 2 for _, _, requests, _, _ in checked)
        for available, slot, requests, d, targets in checked:
            assert targets == replay_sampling_decisions(5, slot, requests, available, d)

    @pytest.mark.parametrize("policy", [dict(), dict(policy="random", schedulers=8)])
    def test_any_request_list_decides_as_the_replay(self, policy):
        """Scheduler i takes ``requests[i]`` for any list: a prefix, the same
        prefix reversed and a single request each decide as the plain replays."""
        sim = Simulation(small_nfv(hosts=20, seed=7, **policy))
        for _ in range(5):
            sim.run_slot()
        pending = sim.trace[sim._attempted:]
        for requests in (pending[:4], pending[:4][::-1], pending[2:3]):
            targets = sim.decide(fresh_view(sim), sim.slot, requests)
            if sim.controller is None:
                assert targets == replay_snapshot_decisions(sim, sim.slot, requests)
            else:
                assert targets == replay_sampling_decisions(
                    7, sim.slot, requests, sim.state.available.tolist(), sim.controller.d)


def spy_decisions(sim, reference):
    """Each non-empty decide call's targets with ``reference(view, slot, requests)``'s."""
    seen = []

    def spy(view, slot, requests):
        targets = Simulation.decide(sim, view, slot, requests)
        if requests:
            seen.append((targets, reference(view, slot, requests)))
        return targets

    sim.decide = spy
    return seen


def fresh_view(sim):
    """A view of the state's current snapshot that shares no cache with the engine's."""
    return HostView(sim.state.available.copy(), sim.state.capacity)


def replay_snapshot_decisions(sim, slot, requests):
    """``choose`` for each request in scheduler order on ``default_rng((seed, 3, slot))``,
    each on a fresh view."""
    rng = np.random.default_rng((sim.config.seed, 3, slot))
    return [choose(sim.policy, fresh_view(sim), r, rng) for r in requests]


class TestSlotGenerators:
    """A slot's decisions draw from ``default_rng((seed, 3, slot))``, and the run's
    resolution orders from one ``default_rng((seed, 4))``."""

    @pytest.mark.parametrize("kind", ["random", "ffr", "wfr"])
    def test_snapshot_kinds_replay_choose_in_scheduler_order(self, kind):
        sim = Simulation(small_nfv(replicas=4, policy=kind, schedulers=10, seed=5))
        seen = spy_decisions(sim, lambda view, slot, requests: replay_snapshot_decisions(
            sim, slot, requests))
        sim.run()
        assert len(seen) == sim.metrics.slots >= 10
        assert sum(len(targets) for targets, _ in seen) == len(sim.trace)
        for targets, replayed in seen:
            assert targets == replayed

    @pytest.mark.parametrize("policy", [dict(), dict(policy="random", schedulers=10),
                                        dict(policy="wf", schedulers=10)])
    def test_resolution_follows_the_run_generator(self, policy):
        """Each slot's placements are tried in ``default_rng((seed, 4)).permutation(active)``
        order, one permutation per slot from the one generator."""
        sim = Simulation(small_nfv(replicas=4, seed=5, **policy))
        decided = spy_decisions(sim, lambda view, slot, requests: (slot, requests))
        tried, place = [], sim.state.place

        def spy_place(request, host):
            tried.append((sim.slot, request.id))
            return place(request, host)

        sim.state.place = spy_place
        sim.run()
        rng = np.random.default_rng((5, 4))  # a slot without requests draws no permutation
        assert len(decided) == sim.metrics.slots
        shuffled = 0
        for targets, (slot, requests) in decided:
            order = rng.permutation(len(requests)).tolist()
            shuffled += order != sorted(order)
            expected = [requests[j].id for j in order if targets[j] is not None]
            assert [rid for at, rid in tried if at == slot] == expected
        assert shuffled >= 5

    @pytest.mark.parametrize("kind", ["ff", "wf", "adaptive", "distfromdiag", "random"])
    def test_deterministic_kinds_build_no_decision_generator(self, kind, monkeypatch):
        keys = []
        default_rng = np.random.default_rng

        def spy(seed=None):
            keys.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        sim = Simulation(small_nfv(replicas=2, policy=kind, schedulers=10, seed=5))
        sim.run()
        slots = sorted(key[2] for key in keys if isinstance(key, tuple) and key[:2] == (5, 3))
        # random, a drawing kind, shows that the spy sees one generator per slot
        assert slots == ([] if kind != "random" else list(range(sim.metrics.slots)))


class TestCandidateCache:
    """A slot's view ranks each (kind, demand) once, and each request's pick
    equals a pick on a fresh view of the same snapshot."""

    @pytest.mark.parametrize("preset", ["nfv", "amazon"])
    @pytest.mark.parametrize("kind", FULL_SNAPSHOT_KINDS)
    def test_each_demand_ranked_once_and_picked_as_on_a_fresh_view(self, monkeypatch, preset,
                                                                    kind):
        sim = Simulation(make_config(preset, policy=kind, schedulers=10, seed=0))
        for _ in range(100):  # a slot-start snapshot 100 slots in
            sim.run_slot()
        requests = sim.trace[sim._attempted:sim._arrived][:10]
        demands = [r.flavor.demand for r in requests]
        assert len(set(demands)) < len(demands)  # some demand repeats in the slot
        ranked, rank = [], HostView._rank

        def counting(view, kind, demand):
            ranked.append((kind, demand))
            return rank(view, kind, demand)

        monkeypatch.setattr(HostView, "_rank", counting)
        targets = sim.decide(fresh_view(sim), sim.slot, requests)
        assert sorted(ranked) == sorted({(kind, demand) for demand in demands})
        assert targets == replay_snapshot_decisions(sim, sim.slot, requests)
        assert any(t is not None for t in targets)

    @pytest.mark.parametrize("kind", FULL_SNAPSHOT_KINDS)
    def test_choose_calls_per_slot(self, monkeypatch, kind):
        """``decide`` calls the module-level ``apsr.engine.choose`` once per request,
        in scheduler order, which is the call a traced run wraps and counts."""
        sim = Simulation(make_config("nfv", policy=kind, schedulers=10, seed=0))
        for _ in range(100):
            sim.run_slot()
        requests = sim.trace[sim._attempted:sim._arrived][:10]
        assert len(requests) == 10
        calls = []

        def counting(*args):
            calls.append(args[2])
            return choose(*args)

        monkeypatch.setattr(apsr.engine, "choose", counting)
        sim.decide(fresh_view(sim), sim.slot, requests)
        assert calls == requests


class TestRunShapes:
    def test_empty_trace_reports_zero_attempts(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("resources cpu mem\nhost 1 1 1\nflavor 0.5 0.5 0\n")
        metrics = run_experiment(
            make_config(dataset=str(path), hosts=2, policy="ff", schedulers=1)
        )
        assert metrics.slots == 0
        assert metrics.attempts == 0
        assert metrics.decline_ratio == 0.0

    def test_oracle_t1_meets_target_at_desk_scale(self):
        config = make_config("nfv", estimator="oracle", period=1, seed=2,
                             replicas=2, hosts=56)
        metrics = run_experiment(config)
        assert metrics.decline_ratio <= 0.05
        assert not metrics.truncated

    def test_preset_fields_survive_overrides(self):
        config = make_config("nfv", policy="ff", schedulers=3)
        assert (config.dataset, config.replicas, config.hosts) == ("nfv", 30, 837)
        assert (config.policy, config.schedulers) == ("ff", 3)

    def test_metrics_dict_round_trip_fields(self):
        metrics = run_experiment(small_nfv(policy="ff", schedulers=2))
        d = metrics.to_dict()
        assert d["attempts"] == metrics.attempts
        assert d["decline_ratio"] == metrics.decline_ratio
        assert set(d) >= {"slots", "successes", "throughput", "mean_active", "truncated"}

    def test_config_is_dataclass_with_stable_fields(self):
        # the manifest echo relies on asdict round-tripping
        config = small_nfv(policy="ff", schedulers=2)
        rebuilt = ExperimentConfig(**dataclasses.asdict(config))
        assert rebuilt == config
