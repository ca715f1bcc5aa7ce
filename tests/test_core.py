"""Cluster-state transition rules: placement, completion, census, conservation.

Resource values are integers in a dataset's units; these tests use thousandths,
so a unit host is (1000, 1000).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apsr import (AvailabilityCensus, ClusterState, ConfigError, Flavor, HostView, ModelError,
                  Request, vector)
from apsr.core import MAX_UNITS, fits
from oracles import ReplayBook, census_brute

UNIT = (1000, 1000)


def flavor(*demand, fid=None):
    return Flavor(fid or "x".join(str(v) for v in demand), demand)


def request(rid, *demand):
    return Request(rid, flavor(*demand))


class TestVectorAndTypes:
    def test_vector_rejects_negative_and_empty(self):
        with pytest.raises(ModelError):
            vector([])
        with pytest.raises(ModelError):
            vector([500, -100])

    def test_vector_accepts_only_integers(self):
        for bad in ([0.5], [1.0], [float("nan")], [True], ["1"]):
            with pytest.raises(ModelError):
                vector(bad)
        assert vector(np.array([3, 0])) == (3, 0)
        assert all(type(v) is int for v in vector(np.array([3, 0])))

    def test_flavor_needs_positive_coordinate(self):
        with pytest.raises(ModelError):
            Flavor("zero", (0, 0))
        assert Flavor("ok", (0, 100)).demand == (0, 100)


class TestIsAvailable:
    """A host is available for a flavor when the flavor's demand fits the
    host's availability in every coordinate, exactly."""

    @staticmethod
    def one_host(*resident):
        state = ClusterState([UNIT])
        for rid, demand in enumerate(resident):
            assert state.place(request(rid, *demand), 0)
        return state

    def test_empty_unit_host_takes_small_demand(self):
        assert self.one_host().census([flavor(32, 40)]).min_available == 1

    def test_full_host_takes_nothing(self):
        state = self.one_host((1000, 1000))
        assert state.census([flavor(1, 0)]).min_available == 0
        assert not state.place(request(9, 1, 0), 0)

    def test_exact_fit_boundary_is_available(self):
        state = self.one_host((500, 500))
        assert fits((500, 500), state.available[0])
        assert not fits((501, 500), state.available[0])
        assert state.census([flavor(500, 500)]).min_available == 1
        assert state.place(request(9, 500, 500), 0)
        assert state.available.tolist() == [[0, 0]]

    def test_dimension_mismatch_is_model_error(self):
        state = self.one_host()
        with pytest.raises(ModelError):
            state.census([flavor(100, 100, 100)])
        with pytest.raises(ModelError):
            state.place(request(1, 100, 100, 100), 0)


class TestPlaceComplete:
    def test_place_reduces_availability(self):
        state = ClusterState([UNIT])
        assert state.place(request(1, 300, 300), 0)
        assert state.available.tolist() == [[700, 700]]
        assert state.available.dtype == np.int64

    def test_insufficient_coordinate_declines_without_change(self):
        state = ClusterState([UNIT])
        state.place(request(1, 900, 0), 0)
        before = state.available.copy()
        assert not state.place(request(2, 300, 300), 0)
        assert np.array_equal(state.available, before)
        assert 2 not in state.placements

    def test_capacity_exhaustion_on_second_placement(self):
        state = ClusterState([UNIT])
        assert state.place(request(1, 600, 600), 0)
        assert not state.place(request(2, 600, 600), 0)

    def test_unknown_host_is_model_error_not_decline(self):
        state = ClusterState([UNIT])
        with pytest.raises(ModelError):
            state.place(request(1, 100, 100), 5)

    def test_double_place_is_model_error(self):
        state = ClusterState([UNIT])
        state.place(request(1, 100, 100), 0)
        with pytest.raises(ModelError):
            state.place(request(1, 100, 100), 0)

    def test_place_then_complete_is_state_identity(self):
        state = ClusterState([UNIT, (1000, 2000)])
        state.place(request(1, 300, 540), 1)
        before = state.available.copy()
        state.place(request(2, 190, 40), 1)
        assert state.complete(2) == 1
        assert np.array_equal(state.available, before)

    def test_complete_of_never_placed_id_errors(self):
        state = ClusterState([UNIT])
        with pytest.raises(ModelError):
            state.complete(42)

    def test_placement_records_host_and_demand(self):
        state = ClusterState([UNIT, UNIT])
        state.place(request(7, 100, 200), 1)
        assert (state.placements[7].host_id, state.placements[7].demand) == (1, (100, 200))


class TestConservation:
    def test_interleaved_ops_replay_exactly(self):
        """Replay checker: availability equals capacity minus resident demands
        after every operation in an interleaved sequence."""
        caps = [UNIT, (1000, 2000), (2000, 1000)]
        state = ClusterState(caps)
        book = ReplayBook(caps)
        demands = [(300, 540), (190, 40), (500, 125), (32, 40), (354, 62)]
        ops = [
            ("place", 0, 0), ("place", 1, 1), ("place", 2, 2),
            ("complete", 1, None), ("place", 3, 0), ("place", 4, 1),
            ("complete", 0, None), ("complete", 4, None),
        ]
        for op, rid, host in ops:
            if op == "place":
                assert state.place(request(rid, *demands[rid]), host)
                book.place(rid, host, demands[rid])
            else:
                state.complete(rid)
                book.complete(rid)
            assert state.available.tolist() == book.expected_available()

    def test_random_soak_conserves(self):
        rng = np.random.default_rng(7)
        caps = [UNIT] * 10
        state = ClusterState(caps)
        book = ReplayBook(caps)
        alive = []
        for rid in range(300):
            if alive and rng.random() < 0.4:
                victim = alive.pop(rng.integers(len(alive)))
                state.complete(victim)
                book.complete(victim)
            else:
                demand = tuple(int(rng.choice([1, 16, 32, 190, 300])) for _ in range(2))
                host = int(rng.integers(10))
                if state.place(request(rid, *demand), host):
                    book.place(rid, host, demand)
                    alive.append(rid)
        assert state.available.tolist() == book.expected_available()


@st.composite
def operation_sequences(draw):
    """Host capacities plus a list of (place?, index, demand) operations.  Half the
    cases lift up to two capacity coordinates near 2^62 and draw demands there too,
    so updates run at int64 range while the fleet total stays within MAX_UNITS."""
    dim = draw(st.integers(1, 3))
    coordinate = st.integers(0, 12)
    caps = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=4))
    amount = st.integers(0, 8)
    if draw(st.booleans()):
        big = st.integers(2**62 - 2**8, 2**62 - 2**7)  # two, plus 12 coordinates <= 12: int64
        for _ in range(draw(st.integers(1, 2))):
            host, r = draw(st.integers(0, len(caps) - 1)), draw(st.integers(0, dim - 1))
            caps[host] = caps[host][:r] + (draw(big),) + caps[host][r + 1:]
        amount |= st.integers(2**61 - 8, 2**61 + 8) | st.integers(2**62 - 2**8, 2**62)
    assert sum(map(sum, caps)) <= MAX_UNITS
    demand = st.tuples(*[amount] * dim).filter(any)
    ops = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 50), demand), max_size=40))
    return caps, ops


class TestClusterProperties:
    @given(operation_sequences())
    def test_random_place_complete_sequences(self, case):
        """After every operation: available == capacity - sum of resident
        demands (recounted in plain ints), no coordinate is negative, place
        declines exactly when the demand does not fit, ``resident_ids``
        lists exactly the residents, each at its placement's index, and the
        running utilization equals one from the summed availability."""
        caps, ops = case
        state = ClusterState(caps)
        book = ReplayBook(caps)
        alive: list[int] = []
        for rid, (is_place, index, demand) in enumerate(ops):
            if is_place or not alive:
                host = index % len(caps)
                fit = all(w <= a for w, a in zip(demand, book.expected_available()[host]))
                assert state.place(request(rid, *demand), host) == fit
                if fit:
                    book.place(rid, host, demand)
                    alive.append(rid)
            else:
                victim = alive.pop(index % len(alive))
                assert state.complete(victim) == book.resident[victim][0]
                book.complete(victim)
            rows = state.available.tolist()
            assert rows == book.expected_available()
            assert min(min(row) for row in rows) >= 0
            total = sum(map(sum, caps))  # the running total of used units
            used = (total - sum(map(sum, rows))) / total if total else 0.0
            assert state.utilization() == used
            assert sorted(state.resident_ids) == sorted(book.resident)
            for i, rid in enumerate(state.resident_ids):
                assert state.placements[rid].index == i

    def test_available_is_never_rebound_and_row_writes_reach_place(self):
        """``place`` and ``complete`` update the rows through a view of the array that
        ``available`` returns, so it cannot be rebound, and numpy writes to it count."""
        state = ClusterState([UNIT, UNIT])
        with pytest.raises(AttributeError):
            state.available = np.zeros((2, 2), np.int64)
        state.available[1] -= (600, 0)  # an in-place numpy write: host 1 keeps (400, 1000)
        assert not state.place(request(0, 500, 100), 1)
        assert state.place(request(1, 400, 100), 1)
        assert state.available.tolist() == [[1000, 1000], [0, 900]]
        state.complete(1)
        assert state.available.tolist() == [[1000, 1000], [400, 1000]]

    def test_complete_swaps_the_last_resident_into_the_freed_position(self):
        state = ClusterState([UNIT])
        for rid in range(5):
            assert state.place(request(rid, 100, 100), 0)
        state.complete(1)
        assert state.resident_ids == [0, 4, 2, 3]
        state.complete(3)  # the last entry: nothing moves
        assert state.resident_ids == [0, 4, 2]
        assert [state.placements[rid].index for rid in (0, 4, 2)] == [0, 1, 2]


@st.composite
def census_cases(draw):
    """A fleet of one or two host shapes, its flavors, and a list of
    (place?, index, flavor index) steps."""
    dim = draw(st.integers(1, 3))
    shapes = draw(st.lists(st.tuples(*[st.integers(0, 12)] * dim), min_size=1, max_size=2))
    caps = [shapes[h % len(shapes)] for h in range(draw(st.integers(1, 6)))]
    demand = st.tuples(*[st.integers(0, 8)] * dim).filter(any)
    flavors = [flavor(*w, fid=f"f{i}")
               for i, w in enumerate(draw(st.lists(demand, min_size=1, max_size=4)))]
    steps = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 50), st.integers(0, 3)),
                          max_size=30))
    return caps, flavors, steps


class TestCensus:
    def test_empty_cluster_counts_everything(self):
        state = ClusterState([UNIT] * 8)
        flavors = [flavor(32, 40), flavor(190, 540)]
        census = state.census(flavors)
        assert census.per_flavor == {f.id: 8 for f in flavors}
        assert census.min_available == 8

    def test_full_cluster_counts_zero(self):
        state = ClusterState([UNIT] * 4)
        for host in range(4):
            assert state.place(request(host, 1000, 1000), host)
        assert state.census([flavor(1, 10)]).min_available == 0
        assert state.census([flavor(1, 10), flavor(10, 1)]).min_available == 0

    def test_mixed_state_matches_brute_force(self):
        rng = np.random.default_rng(11)
        state = ClusterState([UNIT] * 10)
        rid = 0
        for _ in range(40):
            demand = tuple(int(rng.choice([40, 100, 300, 540])) for _ in range(2))
            state.place(request(rid, *demand), int(rng.integers(10)))
            rid += 1
        flavors = [flavor(32, 40), flavor(190, 540), flavor(500, 500)]
        assert state.census(flavors).per_flavor == census_brute(state, flavors)

    @given(census_cases(), st.integers(1, 4))
    def test_matches_brute_force_read_every_few_steps(self, case, every):
        """The census is read after every ``every`` steps, so up to four
        hosts change between two reads of the kept counts."""
        caps, flavors, steps = case
        state = ClusterState(caps)
        alive: list[int] = []
        assert state.census(flavors).per_flavor == census_brute(state, flavors)
        for rid, (is_place, index, which) in enumerate(steps):
            if is_place or not alive:
                if state.place(Request(rid, flavors[which % len(flavors)]), index % len(caps)):
                    alive.append(rid)
            else:
                state.complete(alive.pop(index % len(alive)))
            if rid % every == every - 1:
                assert state.census(flavors).per_flavor == census_brute(state, flavors)
        assert state.census(flavors).per_flavor == census_brute(state, flavors)

    def test_flavor_list_changes_between_calls(self):
        state = ClusterState([UNIT] * 6)
        for rid, (host, demand) in enumerate([(0, (900, 100)), (1, (500, 500)),
                                              (2, (100, 900)), (3, (700, 700))]):
            assert state.place(request(rid, *demand), host)
        flavors = [flavor(300, 300), flavor(600, 100), flavor(100, 600)]
        for listed in (flavors, flavors[1:], flavors[::-1], flavors + [flavor(400, 400)],
                       [flavor(300, 300, fid="renamed")], flavors):
            assert state.census(listed).per_flavor == census_brute(state, listed)
            state.place(request(len(state.placements) + 10, 50, 50), 5)
            assert state.census(listed).per_flavor == census_brute(state, listed)

    def test_place_and_complete_on_one_host_between_reads(self):
        state = ClusterState([UNIT] * 3)
        flavors = [flavor(300, 300), flavor(800, 800)]
        before = state.census(flavors).per_flavor
        assert state.place(request(1, 500, 500), 1)
        assert state.place(request(2, 300, 300), 1)
        state.complete(1)
        assert state.census(flavors).per_flavor == census_brute(state, flavors)
        assert state.census(flavors).per_flavor == {"300x300": 3, "800x800": 2}
        state.complete(2)
        assert state.census(flavors).per_flavor == before

    def test_declined_place_keeps_the_counts(self):
        state = ClusterState([UNIT] * 2)
        flavors = [flavor(300, 300), flavor(600, 600)]
        assert state.place(request(1, 700, 700), 0)
        before = state.census(flavors).per_flavor
        assert not state.place(request(2, 400, 400), 0)
        assert not state._stale
        assert state.census(flavors).per_flavor == before == census_brute(state, flavors)

    def test_census_monotone_under_place_and_complete(self):
        state = ClusterState([UNIT] * 5)
        flavors = [flavor(300, 300), flavor(700, 700)]
        before = state.census(flavors).per_flavor
        state.place(request(1, 500, 500), 2)
        after = state.census(flavors).per_flavor
        assert all(after[f] <= before[f] for f in after)
        state.complete(1)
        restored = state.census(flavors).per_flavor
        assert all(restored[f] >= after[f] for f in restored)
        assert restored == before

    def test_min_available_skips_flavors_that_fit_no_host(self):
        """A flavor no host fits is declined whatever the fleet, so it does not
        pin the cluster-wide availability to 0."""
        state = ClusterState([UNIT] * 3 + [(300, 300)])
        census = state.census([flavor(1200, 100), flavor(500, 500)])
        assert census.per_flavor == {"1200x100": 0, "500x500": 3}
        assert census.min_available == 3
        assert AvailabilityCensus({"a": 7, "b": 0, "c": 2}).min_available == 2

    def test_min_available_requires_flavors(self):
        with pytest.raises(ModelError):
            AvailabilityCensus({}).min_available


@st.composite
def reader_cases(draw):
    """A fleet, its flavors (as in ``census_cases``) and a list of (step, index,
    flavor index, flag) steps: 0 place, 1 complete, 2 census (of the flavors
    reversed when flag), 3 snapshot view (of the demands of the first flavors,
    up to index, when flag).  A flagged reader's list can differ from the last
    reader's, and then it refits every host."""
    caps, flavors, _ = draw(census_cases())
    steps = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 50), st.integers(0, 3),
                                    st.booleans()), max_size=30))
    return caps, flavors, steps


class TestKeptFitsAndLoads:
    """``census`` and ``snapshot`` share one fit matrix, the host loads and one
    stale set, in any order of reads, places and completions."""

    @staticmethod
    def fresh(state):
        return HostView(state.available.copy(), state.capacity)

    def check_kept(self, state):
        """Every host but the stale ones has its kept fits and load equal to a full
        refit, the load bit for bit."""
        fresh, current = self.fresh(state), ~np.isin(np.arange(state.n), list(state._stale))
        if state._counted is not None:
            assert state._fit.shape == (len(state._counted), state.n)
            for demand, column in zip(state._counted, state._fit):
                assert np.array_equal(column[current], fresh.fit_mask(demand)[current])
        if state._loads is not None:
            assert np.array_equal(state._loads[current], fresh.loads()[current])

    def check_view(self, state, view, demands):
        fresh = self.fresh(state)
        assert np.array_equal(view.available, fresh.available)
        assert set(view._masks) == set(demands)  # filled up front, from the kept matrix
        for demand in demands:
            assert np.array_equal(view.fit_mask(demand), fresh.fit_mask(demand))
        if state.capacity.all():
            assert np.array_equal(view.loads(), fresh.loads())
        else:
            with pytest.raises(ConfigError):
                view.loads()

    @given(reader_cases())
    def test_interleaved_reads_match_full_refits(self, case):
        caps, flavors, steps = case
        state = ClusterState(caps)
        demands = tuple(f.demand for f in flavors)
        alive: list[int] = []
        for rid, (step, index, which, flag) in enumerate(steps):
            if step == 0 or step == 1 and not alive:
                if state.place(Request(rid, flavors[which % len(flavors)]), index % len(caps)):
                    alive.append(rid)
            elif step == 1:
                state.complete(alive.pop(index % len(alive)))
            elif step == 2:
                listed = flavors[::-1] if flag else flavors
                assert state.census(listed).per_flavor == census_brute(state, listed)
            else:
                listed = demands[:index % len(demands) + 1] if flag else demands
                view = HostView.of_state(state, listed)
                self.check_view(state, view, listed)
            self.check_kept(state)

    def test_loads_are_kept_only_after_a_snapshot(self):
        state = ClusterState([UNIT] * 3)
        flavors = [flavor(300, 300)]
        state.place(request(1, 500, 500), 0)
        state.census(flavors)
        assert state._loads is None
        view = HostView.of_state(state, (flavors[0].demand,))
        assert view.loads().tolist() == [0.5, 0.0, 0.0]
        state.place(request(2, 100, 800), 2)
        state.census(flavors)  # refreshes the loads too, for the next snapshot
        assert state._loads.tolist() == [0.5, 0.0, 0.8]


class TestClusterValidation:
    def test_needs_hosts_and_consistent_dimension(self):
        with pytest.raises(ModelError):
            ClusterState([])
        with pytest.raises(ModelError):
            ClusterState([UNIT, (1000,)])

    def test_total_capacity_must_fit_int64(self):
        ClusterState([(2**62, 2**62 - 1)])
        with pytest.raises(ModelError):
            ClusterState([(2**62, 2**62)])

    def test_utilization(self):
        state = ClusterState([UNIT, UNIT])
        assert state.utilization() == 0.0
        state.place(request(1, 500, 500), 0)
        assert state.utilization() == 0.25
        assert not state.place(request(2, 600, 100), 0)
        state.place(request(3, 1000, 1000), 1)
        state.complete(1)
        assert state.utilization() == 0.5
