"""Placement policies behind a single interface: view + request -> host or decline.

Seven full-snapshot heuristics (ff, wf, random, ffr, wfr, adaptive,
distfromdiag) share one rule: a view ranks each kind's candidate hosts for a
demand once (``HostView.candidates``), and ``choose`` picks uniformly among
them.  The sampling agent ("apsr") is configured here too, but it decides on a
d-host sample, which the engine draws and resolves with the Monte-Carlo game's
kernel (``ballsbins.pick_distinct``).  Policies are stateless; all randomness
flows through the generator passed to ``choose``, and the deterministic kinds,
with one candidate each, never touch it.
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

    A view is treated as read-only: host loads, the capacity scale, the fit mask
    of each demand vector and each kind's candidates for it are computed on first
    use and cached, so all decisions of a slot share one view of the slot-start snapshot.
    ``of_state`` fills them up front from what a ``ClusterState`` keeps, without
    copies, so such a view holds only until the state's next ``place`` or ``complete``.
    ``ids``, if given, must be ``arange(len(available))``; it is stored nowhere.
    """

    available: np.ndarray
    capacity: np.ndarray
    ids: InitVar[np.ndarray | None] = None
    _loads: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _scale: int | None = field(default=None, init=False, repr=False, compare=False)
    _masks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _candidates: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self, ids):
        if ids is not None and not np.array_equal(ids, np.arange(len(self.available))):
            raise ConfigError("host i is row i of a view: ids must be arange(len(available))")

    @classmethod
    def of_state(cls, state: ClusterState, demands: tuple[ResourceVector, ...]) -> HostView:
        """The state's current snapshot with its loads, capacity scale and the fit
        masks of ``demands`` filled in."""
        view = cls(state.available, state.capacity)
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

    def candidates(self, kind: str, demand: tuple[int, ...]) -> list[int] | np.ndarray:
        """The hosts ``kind`` picks uniformly among for ``demand``, ranked once per view:
        none if no host fits, else the first fitting row (host i is row i) of the least
        key for the ``DETERMINISTIC_KINDS`` (adaptive keys as wf below mean host load
        ``ADAPTIVE_THRESHOLD``, then as ff), every fitting row for random, and the first
        ``LAMBDA_RANK`` fitting rows by id for ffr and by (load, id) for wfr."""
        hosts = self._candidates.get((kind, demand))
        if hosts is None:
            hosts = self._candidates[kind, demand] = self._rank(kind, demand)
        return hosts

    def _rank(self, kind: str, demand: tuple[int, ...]) -> list[int] | np.ndarray:
        if kind not in FULL_SNAPSHOT_KINDS:
            raise ConfigError(f"choose serves the full-snapshot kinds, not {kind!r}")
        mask = self.fit_mask(demand)
        if mask.size == 0:
            raise ConfigError("empty host view")
        first = mask.argmax()  # the first fitting row; row 0 when none fits
        if not mask[first]:
            return []
        if kind == "adaptive":  # loads() also rejects zero-capacity coordinates
            kind = "wf" if float(self.loads().mean()) < ADAPTIVE_THRESHOLD else "ff"
        if kind == "ff":
            return [int(first)]
        if kind == "wf":  # unfit hosts get an infinite key; loads are finite
            loads = self.loads()
            row = loads.argmin()  # the first row of the least load
            return [int(row if mask[row] else np.where(mask, loads, np.inf).argmin())]
        rows = np.flatnonzero(mask)
        if kind == "random":
            return rows
        if kind == "ffr":
            return rows[:LAMBDA_RANK]
        loads = self.loads()  # rejects zero-capacity coordinates for every kind below
        if kind == "wfr":  # rows ascend, so a stable sort by load ranks them by (load, id)
            return rows[loads[rows].argsort(kind="stable")][:LAMBDA_RANK]
        # distfromdiag: prefer the host whose usage fractions after a hypothetical
        # placement stay closest to the diagonal (equal use of every resource).
        # With U = usage * scale, an integer, the key dim*sum(U^2) - sum(U)^2 is
        # (dim * scale * distance)^2, so it ranks hosts exactly.  U <= scale bounds
        # both terms by (dim * scale)^2; past int64 they are Python ints, which argmin compares.
        dim, scale = len(demand), self.scale()
        capacity = self.capacity[rows].astype(np.int64 if (dim * scale) ** 2 <= MAX_UNITS else object)
        used = (capacity - self.available[rows] + demand) * (scale // capacity)
        return [int(rows[(dim * (used * used).sum(axis=1) - used.sum(axis=1) ** 2).argmin()])]


def choose(
    policy: PolicyConfig, view: HostView, request: Request, rng: np.random.Generator | None
) -> int | None:
    """Pick a host for the request from the view, or None to decline.

    One uniform draw among the view's candidates for the request's demand:
    none declines, and a single one is returned without a draw, so ``rng`` may
    be None for the ``DETERMINISTIC_KINDS``.  Serves the full-snapshot kinds; the
    engine decides for sampling agents with ``ballsbins.pick_distinct``.
    """
    hosts = view.candidates(policy.kind, request.flavor.demand)
    count = len(hosts)
    if count > 1:
        return int(hosts[rng.integers(count)])
    return int(hosts[0]) if count else None
