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
from apsr.engine import _KEY_BLOCK, _agent_draws, _pcg64_streams, _seed_states
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


class CountingStream:
    """A generator whose ``integers`` calls are counted: the sampling agents call it only
    to redraw after a rejected raw half."""

    def __init__(self, rng):
        self.bit_generator, self.calls, self._rng = rng.bit_generator, 0, rng

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self._rng.integers(*args, **kwargs)


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
        ("lambda_d", 0.0), ("seed", -1), ("max_slots", 0), ("max_slots", 2**32 + 1),
    ])
    def test_out_of_range_numbers_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            make_config("nfv-mmpp", **{key: value})

    def test_max_slots_reaches_one_slot_word(self):
        """A slot stays one uint32 word of a stream key: slots 0 to 2^32 - 1."""
        assert make_config("nfv", max_slots=2**32).max_slots == 2**32

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
    def forward_and_backward(sim, count):
        """The slot's decisions evaluated in scheduler order and in reverse,
        each against its own fresh view of the same slot-start snapshot."""
        pairs = list(enumerate(sim.trace[sim._attempted:sim._arrived][:count]))
        assert len(pairs) >= 2

        def decide(order):
            view = HostView(sim.state.available.copy(), sim.state.capacity)
            return sim.decide(view, sim.slot, order)

        forward = decide(pairs)
        if sim.controller is not None:
            sim.controller.queried.clear()
            sim.controller.found.clear()
        return forward, decide(pairs[::-1])[::-1]

    def test_decisions_invariant_to_evaluation_order(self):
        """Scheduler i's decision depends only on the slot-start snapshot and
        its own (seed, slot, i) stream, so evaluating in any order agrees."""
        sim = Simulation(small_nfv(policy="random", schedulers=8, seed=13))
        # advance a few slots to reach an interesting state
        for _ in range(6):
            sim.run_slot()
        forward, backward = self.forward_and_backward(sim, 8)
        assert forward == backward

    def test_apsr_decisions_order_invariant_too(self):
        sim = Simulation(small_nfv(seed=21))
        for _ in range(4):
            sim.run_slot()
        forward, backward = self.forward_and_backward(sim, sim.controller.s)
        assert forward == backward


class TestSamplingDecisions:
    def test_decide_matches_plain_replay_of_each_agent_stream(self):
        """Every apsr decision equals a per-agent replay of its own stream:
        d-sample, sorted distinct fitting hosts, then integers(distinct)."""
        sim = Simulation(small_nfv(hosts=20, seed=5))  # too few hosts: declines too
        seen = []

        def spy(view, slot, pairs):
            pairs = list(pairs)
            targets = Simulation.decide(sim, view, slot, pairs)
            seen.append((view.available.tolist(), slot, pairs, sim.controller.d, targets))
            return targets

        sim.decide = spy
        sim.run()
        checked = [entry for entry in seen if entry[2]]
        assert len(checked) >= 20
        assert any(None in targets for *_, targets in checked)
        assert any(len(pairs) >= 2 for _, _, pairs, _, _ in checked)
        for available, slot, pairs, d, targets in checked:
            assert targets == replay_sampling_decisions(5, slot, pairs, available, d)

    def test_redraw_in_a_run_matches_plain_replay(self, monkeypatch):
        """In nfv-mmpp seed 2, an agent of slot 1333 draws a raw half that numpy rejects.
        It redraws on its generator, and every slot still decides as the plain replay."""
        sim = Simulation(make_config("nfv-mmpp", seed=2, max_slots=1334))
        counted = []

        def spy(streams, n, d):
            streams = [CountingStream(rng) for rng in streams]
            counted.append((sim.slot, streams))
            return _agent_draws(streams, n, d)

        monkeypatch.setattr(apsr.engine, "_agent_draws", spy)
        def replay(view, slot, pairs):
            available = view.available.tolist()
            return replay_sampling_decisions(2, slot, pairs, available, sim.controller.d)

        seen = TestStreamBlocks.spy_decisions(sim, replay)
        sim.run()
        assert sim.metrics.slots == 1334 and len(seen) > 1300
        assert [slot for slot, streams in counted if any(s.calls for s in streams)] == [1333]
        for targets, replayed in seen:
            assert targets == replayed


class TestStreamBlocks:
    """Stream keys are hashed for a block of slots at once, and numpy seeds a fresh
    generator from each key's hashed words; every stream draws exactly as
    ``default_rng(key)``."""

    @staticmethod
    def assert_agent_draws(rng, key, n: int, d: int, c: int) -> bool:
        """``_agent_draws`` on the fresh generator ``rng`` of ``key`` draws as
        ``default_rng(key).integers(0, n, d)`` then ``integers(c)``, and calls ``integers``
        exactly when numpy rejects one of those halves, as this plain recount finds.
        Returns whether it did."""
        words = np.random.default_rng(key).bit_generator.random_raw(d // 2 + 1).tolist()
        halves = [word >> shift & 0xFFFFFFFF for word in words for shift in (0, 32)]
        bounds = [n] * d + [c] if n > 1 else [c]  # below 1, numpy draws no bits
        rejected = any(h * bound % 2**32 < 2**32 % bound for h, bound in zip(halves, bounds))
        stream = CountingStream(rng)
        hosts, rank = _agent_draws([stream], n, d)
        fresh = np.random.default_rng(key)
        assert hosts.tolist() == [fresh.integers(0, n, d).tolist()]
        assert [int(r) for r in rank(np.array([c]))] == [fresh.integers(c)]
        assert (stream.calls > 0) == rejected
        return rejected

    # bounds near 2^31 + 1 reject about half of all 32-bit halves, 3 * 2^30 + 1 a quarter
    bounds = (st.integers(2**31 - 8, 2**31 + 8)
              | st.sampled_from([1, 2, 3 * 2**30 + 1, 2**32 - 1, 2**32]))

    @given(seed=st.integers(0, 2**96 - 1), tag=st.sampled_from([3, 4]),
           slot=st.integers(0, 2**32 - 1), index=st.none() | st.integers(0, 2**16 - 1),
           n=st.integers(1, 10**6) | bounds, d=st.integers(1, 64), c=st.integers(1, 1000) | bounds,
           m=st.integers(0, 64))
    def test_set_generators_draw_as_default_rng(self, seed, tag, slot, index, n, d, c, m):
        key = (seed, tag, slot) if index is None else (seed, tag, slot, index)
        states = _seed_states(list(key))
        assert states.tolist() == [np.random.SeedSequence(key).generate_state(4, np.uint64).tolist()]
        # the key second in a block of two, read as the engine reads it: a resolve key's
        # row with a new axis, an agent key's row fancy-indexed out of its slot's rows
        slots = np.array([slot ^ 1, slot])
        block = (_seed_states([seed, tag, slots]) if index is None else _seed_states(
            [seed, tag, slots[:, None], np.array([index ^ 1, index])]))[1]
        rows = block[None] if index is None else block[[1]]
        assert rows.tolist() == states.tolist()
        for ours in (_pcg64_streams(states)[0], _pcg64_streams(rows)[0]):
            fresh = np.random.default_rng(key)
            assert ours.integers(0, n, d).tolist() == fresh.integers(0, n, d).tolist()
            assert ours.integers(c) == fresh.integers(c)
            assert ours.permutation(m).tolist() == fresh.permutation(m).tolist()
        self.assert_agent_draws(_pcg64_streams(rows)[0], key, n, d, c)

    @pytest.mark.parametrize("n, d, c", [
        (2**31 + 1, 27, 1), (837, 27, 2**31 + 1), (1, 5, 2**31 + 1), (2**32, 1, 1)])
    def test_rejected_halves_redraw_as_numpy(self, n, d, c):
        """Host halves that reject (n = 2^31 + 1), rank halves that reject (a large c),
        and a bound of 2^32, where Lemire's step never rejects."""
        keys = [(0, 3, slot, 0) for slot in range(8)]
        redrew = [self.assert_agent_draws(np.random.default_rng(key), key, n, d, c) for key in keys]
        assert any(redrew) == (n < 2**32)

    @staticmethod
    def spy_hashes(monkeypatch):
        """(first slot, width) of every hash of agent keys during a run."""
        hashes = []

        def spy(key):
            if len(key) == 4:
                hashes.append((int(key[2].min()), len(key[3])))
            return _seed_states(key)

        monkeypatch.setattr(apsr.engine, "_seed_states", spy)
        return hashes

    @staticmethod
    def spy_decisions(sim, reference):
        """Each non-empty decide call's targets with ``reference(view, slot, pairs)``'s."""
        seen = []

        def spy(view, slot, pairs):
            pairs = list(pairs)
            targets = Simulation.decide(sim, view, slot, pairs)
            if pairs:
                seen.append((targets, reference(view, slot, pairs)))
            return targets

        sim.decide = spy
        return seen

    @staticmethod
    def assert_blocks_cross_and_regrow(hashes):
        steps = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(hashes, hashes[1:])]
        assert (_KEY_BLOCK, 0) in steps  # a block ran out: the next starts at its end
        # a slot wider than its block re-hashed before the block ran out
        assert any(step < _KEY_BLOCK and wider > 0 for step, wider in steps)
        # and no other hash: a block is _KEY_BLOCK slots, as wide as the widest slot before it
        assert all(step == _KEY_BLOCK and wider >= 0 or 0 < step < _KEY_BLOCK and wider > 0
                   for step, wider in steps)

    def test_apsr_blocks_match_plain_replay(self, monkeypatch):
        hashes = self.spy_hashes(monkeypatch)
        # few arrivals on 100 hosts: the controller's fleet, so the slots' widths, grow mid-block
        sim = Simulation(small_nfv(hosts=100, lambda_a=1.5, seed=5))
        seen = self.spy_decisions(sim, lambda view, slot, pairs: replay_sampling_decisions(
            5, slot, pairs, view.available.tolist(), sim.controller.d))
        sim.run()
        self.assert_blocks_cross_and_regrow(hashes)
        assert len(seen) >= 64
        for targets, replayed in seen:
            assert targets == replayed

    def test_random_blocks_match_per_key_streams(self, monkeypatch):
        hashes = self.spy_hashes(monkeypatch)
        sim = Simulation(small_nfv(replicas=16, policy="random", schedulers=40, seed=5))
        seen = self.spy_decisions(sim, lambda view, slot, pairs: [
            choose(sim.policy, view, r, np.random.default_rng((5, 3, slot, i))) for i, r in pairs])
        sim.run()
        self.assert_blocks_cross_and_regrow(hashes)
        assert len(seen) == sim.metrics.slots >= 40
        for targets, replayed in seen:
            assert targets == replayed
        for slot in range(sim.metrics.slots):  # the resolution order's stream, slot by slot
            order = sim._streams(slot, None)[0].permutation(40)
            assert order.tolist() == np.random.default_rng((5, 4, slot)).permutation(40).tolist()

    def test_deterministic_kinds_hash_no_agent_keys(self, monkeypatch):
        hashes = self.spy_hashes(monkeypatch)
        sim = Simulation(small_nfv(replicas=8, policy="wf", schedulers=10, seed=5))
        sim.run()
        assert sim.metrics.slots > _KEY_BLOCK + 8 and hashes == []
        slot = _KEY_BLOCK + 8  # a later block's resolve keys
        order = sim._streams(slot, None)[0].permutation(10)
        assert order.tolist() == np.random.default_rng((5, 4, slot)).permutation(10).tolist()


class TestDeterministicDecisions:
    """A deterministic kind picks one host per demand from one view, so the
    engine calls ``choose`` once per distinct demand in the slot."""

    @staticmethod
    def mid_run(preset, kind):
        """A slot-start snapshot 100 slots in, with its slot's ten pairs."""
        sim = Simulation(make_config(preset, policy=kind, schedulers=10, seed=0))
        for _ in range(100):
            sim.run_slot()
        pairs = list(enumerate(sim.trace[sim._attempted:sim._arrived][:10]))
        demands = [r.flavor.demand for _, r in pairs]
        assert len(set(demands)) < len(demands)  # some demand repeats in the slot
        return sim, pairs, len(set(demands))

    @staticmethod
    def fresh_view(sim):
        return HostView(sim.state.available.copy(), sim.state.capacity)

    @pytest.mark.parametrize("preset", ["nfv", "amazon"])
    @pytest.mark.parametrize("kind", ["ff", "wf", "adaptive", "distfromdiag"])
    def test_one_pick_per_demand_equals_one_call_per_request(self, preset, kind):
        sim, pairs, _ = self.mid_run(preset, kind)
        targets = sim.decide(self.fresh_view(sim), sim.slot, pairs)
        view = self.fresh_view(sim)
        assert targets == [choose(sim.policy, view, r, None) for _, r in pairs]
        assert any(t is not None for t in targets)

    @pytest.mark.parametrize("preset", ["nfv", "amazon"])
    @pytest.mark.parametrize("kind, per_demand", [
        ("ff", True), ("wf", True), ("adaptive", True), ("distfromdiag", True),
        ("random", False), ("ffr", False), ("wfr", False),
    ])
    def test_choose_calls_per_slot(self, monkeypatch, preset, kind, per_demand):
        sim, pairs, distinct = self.mid_run(preset, kind)
        calls = []

        def counting(*args):
            calls.append(args[2].flavor.demand)
            return choose(*args)

        monkeypatch.setattr(apsr.engine, "choose", counting)
        sim.decide(self.fresh_view(sim), sim.slot, pairs)
        assert len(calls) == (distinct if per_demand else len(pairs))


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
