"""Domain model for slot-based VM placement: flavors, requests, cluster state.

Demand and capacity values are exact non-negative integers in a dataset's
resource units (a table's values times 10^p, see ``workload.parse_dataset``),
held as int64.  Every availability comparison is exact, so a demand fits iff
it is at most the availability in every coordinate.  Placing a request
subtracts its demand from its host's row and completing it adds the demand
back, so completing every request on a host restores its availability exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from numbers import Integral
from typing import Iterable

import numpy as np

ResourceVector = tuple[int, ...]

#: Largest resource value, and largest fleet-wide capacity total, the int64
#: matrices hold.
MAX_UNITS = int(np.iinfo(np.int64).max)


class ModelError(Exception):
    """Misuse of the domain model: unknown ids, dimension mismatches."""


class ConfigError(Exception):
    """Invalid configuration: unknown dataset or policy, malformed files or
    parameter combinations."""


def vector(values: Iterable[int]) -> ResourceVector:
    """Validate and freeze a resource vector: at least one coordinate, all
    non-negative integers."""
    vec = tuple(values)
    if not vec:
        raise ModelError("resource vector needs at least one coordinate")
    for v in vec:
        if not isinstance(v, Integral) or isinstance(v, bool) or v < 0:
            raise ModelError(f"resource coordinates must be non-negative integers, got {vec}")
    return tuple(int(v) for v in vec)


def fits(demand: Iterable[int], available: Iterable[int]) -> bool:
    """demand <= available coordinate-wise (no dimension check)."""
    return all(d <= a for d, a in zip(demand, available))


def capacity_scale(capacity: np.ndarray) -> int:
    """The lcm of the capacity values, so each used fraction times it is an integer."""
    return math.lcm(*set(capacity.ravel().tolist()))  # np.unique would import numpy.ma


def host_loads(capacity: np.ndarray, available: np.ndarray) -> np.ndarray:
    """Per-row load: the worst per-resource used fraction (capacities must be positive)."""
    return reduce(np.maximum, [(c - a) / c for c, a in zip(capacity.T, available.T)])


@dataclass(frozen=True)
class Flavor:
    """A named demand vector from a dataset's finite flavor set."""

    id: str
    demand: ResourceVector

    def __post_init__(self):
        object.__setattr__(self, "demand", vector(self.demand))
        if not any(self.demand):
            raise ModelError(f"flavor {self.id!r} has an all-zero demand vector")


@dataclass(slots=True)
class Request:
    id: int
    flavor: Flavor


@dataclass(slots=True)
class Placement:
    host_id: int
    demand: ResourceVector
    index: int  # position of the request in ClusterState.resident_ids


@dataclass
class AvailabilityCensus:
    """Exact per-flavor count of hosts that could accept one more request.
    ``min_available`` skips flavors at 0: whatever the fleet, they are declined."""

    per_flavor: dict[str, int]

    @property
    def min_available(self) -> int:
        """Pessimistic cluster-wide availability: the least count among the
        flavors that fit at least one host, or 0 when none does."""
        if not self.per_flavor:
            raise ModelError("census over an empty flavor set has no minimum")
        return min((count for count in self.per_flavor.values() if count), default=0)


class ClusterState:
    """Mutable cluster: int64 capacity/availability matrices plus placement records.

    One instance is owned by a single simulation run; parallel experiments use
    independently constructed states.  Row h of ``available`` always equals
    ``capacity[h]`` minus the sum of the demands placed on host h, and it
    changes only through ``place`` and ``complete``, which mark host h stale:
    ``census`` and ``snapshot`` refit only the stale hosts of the fit matrix
    and host loads they keep.  ``resident_ids`` lists the placed request ids
    in swap-remove order: a placement appends its id, and a completion moves
    the last id into the freed position.  Departure draws index this order.
    """
    available = property(lambda self: self._available)  # read-only: ``_cells`` aliases it

    def __init__(self, capacities: Iterable[Iterable[int]]):
        caps = [vector(c) for c in capacities]
        if not caps:
            raise ModelError("a cluster needs at least one host")
        if len({len(c) for c in caps}) != 1:
            raise ModelError("all hosts must share one resource dimension")
        if sum(map(sum, caps)) > MAX_UNITS:
            raise ModelError("total capacity does not fit in int64")
        self.capacity = np.array(caps, dtype=np.int64)
        self.n, self.dim = self.capacity.shape  # capacity is never rebound
        self._available = self.capacity.copy()
        self._cells = memoryview(self._available).cast("B").cast("q")  # row h from h·dim on
        self._total = int(self.capacity.sum())  # capacity never changes
        self.scale = capacity_scale(self.capacity)
        self._used = 0  # units placed, summed over all coordinates
        self.placements: dict[int, Placement] = {}
        self.resident_ids: list[int] = []
        self._stale: set[int] = set()  # hosts placed on or released since the last refresh
        self._counted: tuple[ResourceVector, ...] | None = None  # demands _fit/_counts hold
        self._loads: np.ndarray | None = None  # kept from the first snapshot on

    def place(self, request: Request, host_id: int) -> bool:
        """Try to place a request; True on success, False on a resolution decline.

        A decline leaves the state untouched.  Unknown hosts and double
        placements are model errors, distinct from declines.
        """
        if not 0 <= host_id < self.n:
            raise ModelError(f"unknown host id {host_id}")
        if request.id in self.placements:
            raise ModelError(f"request {request.id} is already placed")
        demand = request.flavor.demand
        if len(demand) != self.dim:
            raise ModelError(
                f"demand dimension {len(demand)} does not match cluster dimension {self.dim}"
            )
        cells, first = self._cells, host_id * self.dim  # Python ints beat a numpy row op
        for cell, d in enumerate(demand, first):
            if d > cells[cell]:
                return False
        for cell, d in enumerate(demand, first):
            cells[cell] -= d
        self._used += sum(demand)
        self._stale.add(host_id)
        self.placements[request.id] = Placement(host_id, demand, len(self.resident_ids))
        self.resident_ids.append(request.id)
        return True

    def complete(self, request_id: int) -> int:
        """Release the resources of a placed request; returns the hosting id."""
        placement = self.placements.pop(request_id, None)
        if placement is None:
            raise ModelError(f"request {request_id} is not placed")
        for cell, d in enumerate(placement.demand, placement.host_id * self.dim):
            self._cells[cell] += d
        self._used -= sum(placement.demand)
        self._stale.add(placement.host_id)
        last = self.resident_ids.pop()
        if last != request_id:
            self.resident_ids[placement.index] = last
            self.placements[last].index = placement.index
        return placement.host_id

    def _refresh(self, demands: tuple[ResourceVector, ...]) -> None:
        """Refit the stale hosts' loads, if kept, and fits (every host's for new ``demands``)."""
        rows = np.fromiter(self._stale, np.intp, len(self._stale)) if self._stale else None
        self._stale.clear()
        if rows is not None and self._loads is not None:
            self._loads[rows] = host_loads(self.capacity[rows], self.available[rows])
        if demands != self._counted:
            self._demands = np.array(demands, dtype=np.int64).reshape(-1, 1, self.dim)
            self._fit = (self.available >= self._demands).all(axis=2)
            self._counts = self._fit.sum(axis=1)
            self._counted = demands
        elif rows is not None:
            # take gathers faster than fancy indexing, and a census runs every slot
            new = (self.available.take(rows, 0) >= self._demands).all(axis=2)
            self._counts += new.sum(axis=1) - self._fit.take(rows, 1).sum(axis=1)
            self._fit[:, rows] = new

    def census(self, flavors: Iterable[Flavor]) -> AvailabilityCensus:
        """Exact per-flavor available-host counts for the current state.

        Counting the same demand vectors as the last census or snapshot
        refits only the hosts placed on or released since then.
        """
        flavors = list(flavors)
        demands = tuple(f.demand for f in flavors)
        if demands != self._counted:
            for flavor in flavors:
                if len(flavor.demand) != self.dim:
                    raise ModelError(f"flavor {flavor.id!r} has dimension {len(flavor.demand)}, "
                                     f"cluster has {self.dim}")
        self._refresh(demands)
        return AvailabilityCensus(dict(zip([f.id for f in flavors], self._counts.tolist())))

    def snapshot(self, demands: tuple[ResourceVector, ...]) -> tuple[dict, np.ndarray | None]:
        """The current fit mask of each of ``demands`` and the host loads, kept from the
        first call on (None with a zero capacity coordinate).  They are the kept arrays,
        not copies: valid until the next ``place`` or ``complete``."""
        if self._loads is None and self.capacity.all():
            self._loads = host_loads(self.capacity, self.available)
        self._refresh(demands)
        return dict(zip(demands, self._fit)), self._loads

    def utilization(self) -> float:
        """Fraction of total capacity in use, summed over all coordinates (0 with none)."""
        return self._used / self._total if self._total else 0.0
