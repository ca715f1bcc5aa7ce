"""Placement policy behavior: choices, tie-breaking, randomness, safety.

Resource values are integers in a dataset's units; these tests use hundredths,
so a unit host is (100, 100).
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import chi2

from apsr import (
    ClusterState,
    ConfigError,
    Flavor,
    HostView,
    PolicyConfig,
    Request,
    Simulation,
    choose,
    make_config,
)
from apsr.ballsbins import pick_distinct, sigma
from apsr.core import MAX_UNITS, fits
from apsr.policies import (
    ADAPTIVE_THRESHOLD,
    DETERMINISTIC_KINDS,
    FULL_SNAPSHOT_KINDS,
    LAMBDA_RANK,
)
from oracles import reference_choice


def make_view(available, capacity=None):
    available = np.asarray(available, dtype=np.int64)
    if capacity is None:
        capacity = np.full_like(available, 100)
    else:
        capacity = np.asarray(capacity, dtype=np.int64)
    return HostView(available, capacity)


def req(*demand):
    return Request(0, Flavor("req", demand))


def rng():
    return np.random.default_rng(0)


class TestHostLoad:
    """A host's load is its worst per-resource used fraction (``HostView.loads``)."""

    def test_empty_host(self):
        assert make_view([[100, 100]]).loads().tolist() == [0.0]

    def test_single_used_coordinate(self):
        assert make_view([[50, 100]]).loads().tolist() == [0.5]

    def test_asymmetric_capacity(self):
        assert make_view([[70, 20]], capacity=[[100, 200]]).loads().tolist() == [0.9]

    def test_zero_capacity_coordinate_rejected(self):
        with pytest.raises(ConfigError):
            make_view([[100, 0]], capacity=[[100, 0]]).loads()


class TestDeterministicPolicies:
    def test_ff_lowest_available_id(self):
        view = make_view([[0, 0], [100, 100], [100, 100]])
        assert choose(PolicyConfig("ff"), view, req(50, 50), rng()) == 1

    def test_wf_minimal_load(self):
        view = make_view([[10, 10], [90, 90], [50, 50]])
        assert choose(PolicyConfig("wf"), view, req(5, 5), rng()) == 1

    def test_wf_tie_breaks_to_lowest_id(self):
        view = make_view([[50, 50], [50, 50]])
        assert choose(PolicyConfig("wf"), view, req(10, 10), rng()) == 0

    def test_adaptive_switches_regime_at_threshold(self):
        assert ADAPTIVE_THRESHOLD == 0.6
        # loads 0.3/0.1 -> mean 0.2 < 0.6: behaves like wf (host 1 least loaded)
        low = make_view([[70, 80], [90, 90]])
        assert choose(PolicyConfig("adaptive"), low, req(10, 10), rng()) == 1
        # loads 0.7/0.48 -> mean 0.59 just below: still wf
        below = make_view([[30, 40], [52, 60]])
        assert choose(PolicyConfig("adaptive"), below, req(10, 10), rng()) == 1
        # loads 0.7/0.5 -> mean exactly 0.6: behaves like ff (host 0 first available)
        at = make_view([[30, 40], [50, 60]])
        assert choose(PolicyConfig("adaptive"), at, req(10, 10), rng()) == 0
        # loads 0.8/0.6 -> mean 0.7 >= 0.6: ff
        high = make_view([[20, 30], [40, 40]])
        assert choose(PolicyConfig("adaptive"), high, req(10, 10), rng()) == 0

    def test_distfromdiag_prefers_balanced_usage(self):
        # host 0 would end up lopsided (cpu-heavy), host 1 perfectly balanced
        view = make_view([[40, 100], [60, 80]], capacity=[[100, 100], [100, 100]])
        assert choose(PolicyConfig("distfromdiag"), view, req(20, 40), rng()) == 1

    def test_distfromdiag_exact_tie_breaks_to_lowest_id(self):
        # both keys are exactly 0.011 * sqrt(2), but host 1's float key is 1 ulp lower
        view = make_view([[760, 760], [1000, 1000]], capacity=[[1000, 1000], [1000, 1000]])
        assert choose(PolicyConfig("distfromdiag"), view, req(32, 10), None) == 0

    def test_distfromdiag_keys_past_int64_stay_exact(self):
        # coprime capacities near 1e9: (dim * lcm)^2 passes int64, so the keys are Python ints
        shapes = [(999999937, 999999929), (999999929, 999999937)] * 3
        available = [(999999937, 999999929), (999999929, 999999937), (500000000, 500000000),
                     (499999999, 499999999), (123456789, 987654321), (987654321, 123456789)]
        view = HostView(np.array(available), np.array(shapes))
        assert (2 * view.scale()) ** 2 > MAX_UNITS
        for demand in [(1, 1), (7, 3), (100000000, 99999999), (123456789, 123456789)]:
            expected = reference_choice("distfromdiag", range(6), available, shapes, demand)
            assert choose(PolicyConfig("distfromdiag"), view, req(*demand), None) == expected

    def test_load_aware_kinds_reject_zero_capacity(self):
        view = make_view([[100, 0], [100, 100]], capacity=[[100, 0], [100, 100]])
        for kind in ("wf", "wfr", "adaptive", "distfromdiag"):
            with pytest.raises(ConfigError):
                choose(PolicyConfig(kind), view, req(50, 0), rng())

    def test_deterministic_kinds_repeat_identically(self):
        view = make_view([[30, 60], [80, 20], [50, 50], [0, 0]])
        request = req(20, 20)
        for kind in ("ff", "wf", "adaptive", "distfromdiag"):
            first = choose(PolicyConfig(kind), view, request, rng())
            again = choose(PolicyConfig(kind), view, request, np.random.default_rng(999))
            assert first == again


# Power-of-two capacities make every used fraction a short binary fraction,
# so every sum is exact and numpy and the plain loop agree bit for bit
# whatever order they add in; adaptive's float mean load needs that.  Mixed
# capacities exercise distfromdiag's scaling across host shapes.
UNITS = st.integers(0, 16)
POWERS_OF_TWO = st.sampled_from((8, 16, 32))
MIXED = st.sampled_from((3, 10, 12, 1000))


@st.composite
def snapshot_views(draw, capacities):
    """(capacity, available, demand) of a small full view, host i in row i; half of
    them are fresh clusters of identical hosts."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        shape = draw(st.tuples(capacities, capacities))
        capacity = available = [shape] * n
    else:
        capacity = draw(st.lists(st.tuples(capacities, capacities), min_size=n, max_size=n))
        available = [tuple(draw(st.integers(0, c)) for c in cap) for cap in capacity]
    demand = draw(st.tuples(UNITS, UNITS).filter(any))
    return capacity, available, demand


class TestAgainstPlainLoop:
    @staticmethod
    def check(case, kinds):
        capacity, available, demand = case
        view = HostView(np.array(available), np.array(capacity))
        request = Request(0, Flavor("f", demand))
        for kind in kinds:
            expected = reference_choice(kind, range(len(capacity)), available, capacity, demand)
            assert choose(PolicyConfig(kind), view, request, None) == expected, kind

    @given(snapshot_views(POWERS_OF_TWO))
    def test_deterministic_kinds_pick_least_key_then_id(self, case):
        self.check(case, DETERMINISTIC_KINDS)

    @given(snapshot_views(MIXED))
    def test_mixed_capacities_pick_least_key_then_id(self, case):
        self.check(case, ("ff", "wf", "distfromdiag"))


def placed(caps, placements):
    """A ClusterState of host shapes ``caps`` after placing each (host, demand)."""
    state = ClusterState(caps)
    for rid, (host, demand) in enumerate(placements):
        state.place(Request(rid, Flavor("f", demand)), host)
    return state


@st.composite
def placed_states(draw, capacities=POWERS_OF_TWO):
    """A ClusterState of ``capacities`` (half of them fleets of one shape, whose
    empty hosts tie exactly) after a list of placements, and a demand to choose for."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        caps = [draw(st.tuples(capacities, capacities))] * n
    else:
        caps = draw(st.lists(st.tuples(capacities, capacities), min_size=n, max_size=n))
    placements = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.tuples(UNITS, UNITS).filter(any)), max_size=12))
    return placed(caps, placements), draw(st.tuples(UNITS, UNITS).filter(any))


class TestStateBuiltView:
    """``HostView.of_state`` fills a view with copies of what the state keeps; every
    kind picks on it as on a view built by hand from the same arrays."""

    @staticmethod
    def views(state, demand):
        hand = HostView(state.available.copy(), state.capacity)
        return hand, HostView.of_state(state, (demand,))

    @given(placed_states(), st.integers(0, 3))
    def test_every_kind_picks_as_on_a_hand_built_view(self, case, seed):
        state, demand = case
        hand, kept = self.views(state, demand)
        for kind in FULL_SNAPSHOT_KINDS:
            picks = [choose(PolicyConfig(kind), view, req(*demand), np.random.default_rng(seed))
                     for view in (hand, kept)]
            assert picks[0] == picks[1], kind

    def test_exact_load_ties_go_to_the_least_id(self):
        state = ClusterState([(100, 100)] * 5)
        for rid, (host, demand) in enumerate([(0, (100, 100)), (1, (50, 20)), (2, (20, 50)),
                                              (3, (50, 20)), (4, (20, 50))]):
            assert state.place(Request(rid, Flavor("f", demand)), host)
        hand, kept = self.views(state, (10, 10))
        assert kept.loads().tolist() == [1.0, 0.5, 0.5, 0.5, 0.5]  # host 0 does not fit
        for kind in ("wf", "adaptive", "distfromdiag"):
            assert choose(PolicyConfig(kind), kept, req(10, 10), None) == 1, kind
            assert choose(PolicyConfig(kind), hand, req(10, 10), None) == 1, kind

    def test_zero_capacity_fleet(self):
        state = ClusterState([(100, 0), (100, 100)])
        state.place(req(30, 0), 1)
        hand, kept = self.views(state, (50, 0))
        for kind in ("wf", "wfr", "adaptive", "distfromdiag"):
            with pytest.raises(ConfigError):
                choose(PolicyConfig(kind), kept, req(50, 0), rng())
        for kind in ("ff", "random", "ffr"):
            assert (choose(PolicyConfig(kind), kept, req(50, 0), rng())
                    == choose(PolicyConfig(kind), hand, req(50, 0), rng()))


class FixedDraw:
    """A generator stand-in: ``integers(size)`` records size and returns ``index``."""

    def __init__(self, index):
        self.index, self.sizes = index, []

    def integers(self, size):
        self.sizes.append(size)
        return self.index


class TestFirstFittingRow:
    """Host i is row i, so ff, ffr, wf and adaptive read the first fitting rows in
    key order, and wfr and random rank the fitting rows.  They pick as a plain loop
    does, also when the least-loaded host is too small for the demand or no host fits."""

    @staticmethod
    def check(case, kinds):
        state, demand = case
        view = HostView.of_state(state, (demand,))
        available, capacity = state.available.tolist(), state.capacity.tolist()
        for kind in kinds:
            expected = reference_choice(kind, range(state.n), available, capacity, demand)
            assert choose(PolicyConfig(kind), view, req(*demand), None) == expected, kind
        fitting = [h for h in range(state.n) if fits(demand, available[h])]
        load = [max((c - a) / c for c, a in zip(cap, avail))
                for cap, avail in zip(capacity, available)]
        candidates = {"ffr": fitting[:LAMBDA_RANK], "random": fitting,
                      "wfr": sorted(fitting, key=lambda h: (load[h], h))[:LAMBDA_RANK]}
        for kind, hosts in candidates.items():
            if not hosts:
                assert choose(PolicyConfig(kind), view, req(*demand), FixedDraw(0)) is None, kind
            for index, host in enumerate(hosts):  # the kind's candidates, in order
                draw = FixedDraw(index)
                assert choose(PolicyConfig(kind), view, req(*demand), draw) == host, kind
                assert draw.sizes == ([len(hosts)] if len(hosts) > 1 else []), kind  # one: no draw

    @given(placed_states())
    @example((placed([(16, 16)] * 7, []), (4, 4)))  # exact ties at load 0
    @example((placed([(8, 8)] * 3 + [(32, 32)] * 4, []), (16, 16)))  # tied rows too small
    @example((placed([(8, 8), (16, 16), (16, 16)], [(1, (4, 4)), (2, (2, 2))]),
              (10, 10)))  # the least-loaded host 0 is too small; 2 is loaded less than 1
    @example((placed([(8, 8)] * 3, [(0, (1, 1))]), (9, 1)))  # no host fits
    @example((placed([(16, 16)] * 8, [(h, (2, 2)) for h in range(7)]),
              (4, 4)))  # host 7 is least loaded; hosts 0-6 tie at wfr's cut load
    def test_deterministic_kinds_and_ffr_candidates(self, case):
        self.check(case, DETERMINISTIC_KINDS)

    @given(placed_states(MIXED))
    def test_mixed_capacities(self, case):
        self.check(case, ("ff", "wf", "distfromdiag"))

    def test_wf_skips_a_least_loaded_host_too_small_for_the_demand(self):
        state = placed([(10, 10), (100, 100), (100, 100)], [(1, (60, 60)), (2, (30, 30))])
        view = HostView.of_state(state, ((20, 20),))
        assert view.loads().tolist() == [0.0, 0.6, 0.3]
        assert view.fit_mask((20, 20)).tolist() == [False, True, True]
        for kind in ("wf", "adaptive"):
            assert choose(PolicyConfig(kind), view, req(20, 20), None) == 2, kind


class TestRandomizedPolicies:
    @staticmethod
    def chi_square_uniform(kind, view, expected_hosts, trials=10_000):
        """Picks of ``kind`` land on exactly ``expected_hosts``, uniformly."""
        generator = np.random.default_rng(3)
        counts = np.zeros(len(view.available))
        for _ in range(trials):
            counts[choose(PolicyConfig(kind), view, req(10, 10), generator)] += 1
        assert set(np.flatnonzero(counts).tolist()) == set(expected_hosts)
        expected = trials / len(expected_hosts)
        statistic = ((counts[expected_hosts] - expected) ** 2 / expected).sum()
        assert statistic < chi2.ppf(0.999, df=len(expected_hosts) - 1)

    def test_ffr_picks_uniformly_among_lowest_lambda_ids(self):
        assert LAMBDA_RANK == 5
        available = np.full((10, 2), 100)
        available[2] = 0  # host 2 full
        self.chi_square_uniform("ffr", make_view(available), [0, 1, 3, 4, 5])

    def test_wfr_picks_uniformly_among_lambda_least_loaded(self):
        available = np.full((8, 2), 100)
        available[[1, 4, 6]] = 20  # hosts 1, 4 and 6 heavily loaded
        self.chi_square_uniform("wfr", make_view(available), [0, 2, 3, 5, 7])

    def test_fewer_fitting_hosts_than_lambda_are_all_candidates(self):
        available = np.full((8, 2), 100)
        available[[0, 2, 3, 5, 6]] = 5  # only hosts 1, 4 and 7 take the request
        for kind in ("ffr", "wfr"):
            self.chi_square_uniform(kind, make_view(available), [1, 4, 7], trials=3_000)

    def test_random_uniform_chi_square(self):
        view = make_view(np.full((7, 2), 100))
        generator = np.random.default_rng(12)
        counts = np.zeros(7)
        trials = 21_000
        for _ in range(trials):
            counts[choose(PolicyConfig("random"), view, req(10, 10), generator)] += 1
        expected = trials / 7
        statistic = ((counts - expected) ** 2 / expected).sum()
        assert statistic < chi2.ppf(0.999, df=6)


def pick(draws, sentinel, generator):
    """Kernel picks on ``draws`` sorted along its rows, with uniform ranks
    drawn from ``generator``."""
    return pick_distinct(
        np.sort(draws), sentinel,
        lambda distinct: (generator.random(distinct.shape) * distinct).astype(int)
    )


def sampling_sim(d):
    """A controller-managed run on 40 nfv hosts whose agents sample d hosts."""
    sim = Simulation(make_config(dataset="nfv", replicas=1, hosts=40, seed=3))
    sim.controller.d = d
    return sim


class TestSamplingAgent:
    """The sampling agent picks uniformly among the distinct fitting hosts its
    d-sample saw: ``pick_distinct`` does the picking, ``Simulation.decide``
    draws the samples and marks hosts that do not fit with the sentinel n."""

    def test_declines_on_all_full_sample(self):
        # hosts 3, 5, 3 sampled, all full
        assert pick_distinct(np.array([[6, 6, 6]]), 6, np.zeros_like).tolist() == [6]
        sim = sampling_sim(d=5)
        full = HostView(np.zeros_like(sim.state.capacity), sim.state.capacity)
        assert sim.decide(full, 0, sim.trace[:6]) == [None] * 6
        assert sum(sim.controller.queried.values()) == 5 * 6  # d hosts per decision
        assert set(sim.controller.found.values()) == {0}

    def test_duplicates_collapse_to_distinct(self):
        counts = []

        def rank(distinct):
            counts.append(distinct.tolist())
            return np.zeros_like(distinct)

        assert pick_distinct(np.full((50, 4), 2), 6, rank).tolist() == [2] * 50
        assert counts == [[1] * 50]

    def test_picks_only_fitting_sampled_hosts(self):
        # sample 1, 4, 2, 4, 0, 2 of six hosts with 1 and 4 full
        draws = np.tile([6, 6, 2, 6, 0, 2], (200, 1))
        assert set(pick(draws, 6, np.random.default_rng(5)).tolist()) == {0, 2}
        sim = sampling_sim(d=8)
        available = sim.state.capacity.copy()
        available[::2] = 0  # even hosts full
        view = HostView(available, sim.state.capacity)
        targets = sim.decide(view, 0, sim.trace[:200])
        assert {t % 2 for t in targets if t is not None} == {1}
        assert None in targets  # some samples held only even hosts

    def test_decline_rate_tracks_sigma(self):
        """With k of n hosts free, the agents' decline frequency in
        ``Simulation.decide`` matches 1 - sigma(n, k, d) within 3 SE."""
        n, k, d, trials = 40, 12, 3, 30_000
        sim = sampling_sim(d)
        available = sim.state.capacity.copy()
        available[k:] = 0
        view = HostView(available, sim.state.capacity)
        request = sim.trace[0]
        targets = sim.decide(view, 0, [request] * trials)
        p_decline = 1.0 - sigma(n, k, d)
        se = np.sqrt(p_decline * (1 - p_decline) / trials)
        assert abs(targets.count(None) / trials - p_decline) <= 3 * se
        assert all(t < k for t in targets if t is not None)

    def test_apsr_is_not_a_snapshot_policy(self):
        with pytest.raises(ConfigError, match="full-snapshot"):
            choose(PolicyConfig("apsr"), make_view([[100, 100]]), req(10, 10), rng())


class TestInterfaceContracts:
    def test_decline_iff_nothing_available_and_safety(self):
        generator = np.random.default_rng(77)
        for _ in range(60):
            m = int(generator.integers(1, 9))
            available = generator.integers(0, 101, size=(m, 2))
            view = make_view(available)
            request = req(*generator.integers(1, 101, size=2).tolist())
            demand = np.asarray(request.flavor.demand)
            fits_mask = (available >= demand).all(axis=1)
            for kind in ("ff", "wf", "random", "ffr", "wfr", "adaptive", "distfromdiag"):
                picked = choose(PolicyConfig(kind), view, request, generator)
                if not fits_mask.any():
                    assert picked is None
                else:
                    assert picked is not None and fits_mask[picked]

    def test_ids_if_given_are_the_rows(self):
        available = np.full((4, 2), 100)
        view = HostView(available, available, ids=np.arange(4))
        assert choose(PolicyConfig("ff"), view, req(10, 10), None) == 0
        for ids in (np.arange(4)[::-1], np.arange(1, 5), np.arange(3)):
            with pytest.raises(ConfigError):
                HostView(available, available, ids=ids)

    def test_policy_config_validation(self):
        with pytest.raises(ConfigError):
            PolicyConfig("bestfit")
