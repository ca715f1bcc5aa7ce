"""Placement policies behind a single interface: view + request -> host or decline.

Seven full-snapshot heuristics (ff, wf, random, ffr, wfr, adaptive,
distfromdiag).  In every view host i is row i, so each kind reads the fitting
rows in id order: the deterministic kinds pick the least (key, id), the first
fitting row of the least key; distfromdiag ranks hosts by one exact integer
key, so exactly tied hosts go to the least id.  The sampling agent ("apsr") is
configured here too, but it decides on a d-host sample, which the engine draws
and resolves with the Monte-Carlo game's kernel (``ballsbins.pick_distinct``).
Policies are stateless; all randomness flows through the generator passed to
``choose``, and the deterministic kinds never touch it.  ffr and wfr pick
uniformly among their first ``LAMBDA_RANK`` fitting hosts, by id and by
(load, id); adaptive acts as wf while the mean host load is below
``ADAPTIVE_THRESHOLD`` and as ff from there on.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import reduce

import numpy as np

from .core import (MAX_UNITS, ClusterState, ConfigError, Request, ResourceVector, capacity_scale,
                   host_loads)

FULL_SNAPSHOT_KINDS = ("ff", "wf", "random", "ffr", "wfr", "adaptive", "distfromdiag")
POLICY_KINDS = FULL_SNAPSHOT_KINDS + ("apsr",)

#: Kinds whose choice never draws randomness; ``choose`` accepts rng=None for them.
DETERMINISTIC_KINDS = ("ff", "wf", "adaptive", "distfromdiag")

#: Candidate-set size of ffr and wfr.
LAMBDA_RANK = 5
#: Mean host load from which adaptive switches from wf to ff.
ADAPTIVE_THRESHOLD = 0.6


@dataclass(frozen=True)
class PolicyConfig:
    kind: str

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy kind {self.kind!r}; valid: {POLICY_KINDS}")


@dataclass
class HostView:
    """What a scheduler sees: host i is row i of the availability and capacity
    rows, in integer resource units.

    A view is treated as read-only: host loads, the capacity scale and, for
    ``choose``, the fit mask of each demand vector are computed on first use and
    cached, so all decisions of a slot share one view of the slot-start snapshot.
    ``of_state`` fills them up front: copies of what a ``ClusterState`` keeps, and its scale.
    ``ids``, if given, must be ``arange(len(available))``; it is stored nowhere.
    """

    available: np.ndarray
    capacity: np.ndarray
    ids: InitVar[np.ndarray | None] = None
    _loads: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _scale: int | None = field(default=None, init=False, repr=False, compare=False)
    _masks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _adaptive: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self, ids):
        if ids is not None and not np.array_equal(ids, np.arange(len(self.available))):
            raise ConfigError("host i is row i of a view: ids must be arange(len(available))")

    @classmethod
    def of_state(cls, state: ClusterState, demands: tuple[ResourceVector, ...]) -> HostView:
        """The state's current snapshot with its loads, capacity scale and the fit
        masks of ``demands`` filled in."""
        view = cls(state.available.copy(), state.capacity)
        view._masks, view._loads = state.snapshot(demands)
        view._scale = state.scale
        return view

    def loads(self) -> np.ndarray:
        """Per-row load: the worst per-resource used fraction."""
        if self._loads is None:
            if np.any(self.capacity <= 0):
                raise ConfigError("zero-capacity coordinate in host view")
            self._loads = host_loads(self.capacity, self.available)
        return self._loads

    def scale(self) -> int:
        """The lcm of the capacity values, so each used fraction times it is an integer."""
        if self._scale is None:
            self._scale = capacity_scale(self.capacity)
        return self._scale

    def fit_mask(self, demand: tuple[int, ...]) -> np.ndarray:
        """Rows whose availability takes ``demand`` in every coordinate."""
        if demand not in self._masks:
            columns = zip(self.available.T, demand, strict=True)
            self._masks[demand] = reduce(np.logical_and, [a >= w for a, w in columns])
        return self._masks[demand]


def choose(
    policy: PolicyConfig, view: HostView, request: Request, rng: np.random.Generator | None
) -> int | None:
    """Pick a host for the request from the view, or None to decline.

    Serves the full-snapshot kinds; the engine decides for sampling agents
    with ``ballsbins.pick_distinct``.  Declines happen exactly when no host in
    the view can take the request's demand.  A returned host is always
    available for the request in the view.  ``rng`` may be None for the
    ``DETERMINISTIC_KINDS``.
    """
    if policy.kind not in FULL_SNAPSHOT_KINDS:
        raise ConfigError(f"choose serves the full-snapshot kinds, not {policy.kind!r}")
    demand = request.flavor.demand
    mask = view.fit_mask(demand)

    if mask.size == 0:
        raise ConfigError("empty host view")
    first = mask.argmax()  # the first fitting row; row 0 when none fits
    if not mask[first]:
        return None

    kind = policy.kind
    if kind == "adaptive":  # view.loads() also rejects zero-capacity coordinates
        if view._adaptive is None:  # one mean-load test per view
            view._adaptive = "wf" if float(view.loads().mean()) < ADAPTIVE_THRESHOLD else "ff"
        kind = view._adaptive
    # host i is row i, so the least (key, id) of fitting hosts is the first fitting row by key
    if kind == "ff":
        return int(first)
    if kind == "wf":  # unfit hosts get an infinite key; loads are finite
        loads = view.loads()
        row = loads.argmin()  # the first row of the least load
        return int(row if mask[row] else np.where(mask, loads, np.inf).argmin())
    rows = np.flatnonzero(mask)
    if kind == "random":
        return int(rows[rng.integers(rows.size)])
    if kind == "ffr":
        candidates = rows[:LAMBDA_RANK]
        return int(candidates[rng.integers(candidates.size)])

    loads = view.loads()  # rejects zero-capacity coordinates for every kind below
    if kind == "wfr":
        # rows ascend, so a stable sort by load ranks them by (load, id); pick among the top
        candidates = rows[loads[rows].argsort(kind="stable")][:LAMBDA_RANK]
        return int(candidates[rng.integers(candidates.size)])
    # distfromdiag: prefer the host whose usage fractions after a hypothetical
    # placement stay closest to the diagonal (equal use of every resource).
    # With U = usage * scale, an integer, the key dim*sum(U^2) - sum(U)^2 is
    # (dim * scale * distance)^2, so it ranks hosts exactly.  U <= scale bounds
    # both terms by (dim * scale)^2; past int64 they are Python ints, which argmin compares.
    dim, scale = len(demand), view.scale()
    capacity = view.capacity[rows].astype(np.int64 if (dim * scale) ** 2 <= MAX_UNITS else object)
    used = (capacity - view.available[rows] + demand) * (scale // capacity)
    return int(rows[(dim * (used * used).sum(axis=1) - used.sum(axis=1) ** 2).argmin()])
