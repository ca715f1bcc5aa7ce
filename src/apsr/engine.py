"""Slot-based simulation loop: arrivals, parallel decisions against a slot-start
snapshot, contended resolution at hosts, metric accumulation, controller ticks.

Each slot proceeds in a fixed order: departures, arrivals, controller tick (on
period boundaries), scheduler decisions, randomized resolution, metrics.  A
slot's arrival count is drawn when the slot starts, so only ``max_slots`` bounds
how many slots a run draws.  Every scheduler reads one shared view of the
start-of-slot snapshot: scheduler i takes the slot's i-th request, and a
snapshot kind picks uniformly among the view's candidate hosts for its demand,
which the view ranks once per slot.  The random, ffr and wfr schedulers and
the sampling agents draw from the slot's generator
``default_rng((seed, 3, slot))`` in scheduler order; the deterministic kinds
(ff, wf, adaptive, distfromdiag) have one candidate and draw nothing.
Sampling agent i takes row i of one (agents, d) draw of hosts, tests fits
only at those hosts, and all agents then draw their ranks in one call.
Assignments resolve against the live state in a random order drawn
from the run's generator ``default_rng((seed, 4))``; one fails if its host can
no longer take its request.  Declined requests are not re-queued: each request
gets a single placement attempt, in trace order, so the pending queue is the
slice of the trace that has arrived but not been attempted.  Departures draw
positions in the cluster state's swap-remove order of residents.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .ballsbins import pick_distinct
from .controller import ApsrController
from .core import ClusterState, ConfigError, Request
from .policies import DETERMINISTIC_KINDS, HostView, PolicyConfig, choose
from .workload import (
    ARRIVAL_KINDS,
    MAX_RATE,
    arrivals,
    build_trace,
    fleet_capacities,
    fleet_size,
    load_dataset,
)

# seed sub-stream tags
_TRACE, _ARRIVALS, _DEPARTURES, _SCHEDULER, _RESOLVE = range(5)
#: ExperimentConfig fields only the controller reads; set away from its default
#: under any policy but "apsr", a field would only be echoed
_CONTROLLER_SETTINGS = ("delta_hat", "budget", "period", "alpha", "estimator")


@dataclass
class ExperimentConfig:
    """One simulation run, fully determined together with its seed."""

    dataset: str
    replicas: int = 1
    hosts: int | None = None  # None: the dataset's default fleet size
    policy: str = "apsr"  # "apsr" runs under the controller; the rest run fixed fleets
    schedulers: int | None = None  # fixed fleet size; None for "apsr"
    delta_hat: float = 0.05
    budget: int | str | None = None  # None: one query per host; "60%" of hosts ok
    period: int = 10
    alpha: float = 0.1
    estimator: str = "min"
    lambda_a: float = 20.0
    arrival: str = "poisson"
    lambda_d: float | None = None  # mean departures per slot; None: requests never depart
    seed: int = 0
    max_slots: int = 1_000_000

    def __post_init__(self):
        PolicyConfig(self.policy)  # checks the kind
        if (self.policy == "apsr") == (self.schedulers is not None):
            raise ConfigError("policy 'apsr' takes no schedulers; every other policy needs them")
        defaults = {f.name: f.default for f in fields(self)}
        unread = [name for name in _CONTROLLER_SETTINGS if getattr(self, name) != defaults[name]]
        if self.policy != "apsr" and unread:
            raise ConfigError(f"this run never reads {', '.join(unread)} "
                              "(read only when policy is apsr)")
        # checks delta_hat, period, alpha and the estimator
        ApsrController(1, self.delta_hat, 1, self.period, self.alpha, self.estimator)
        if isinstance(self.budget, str):
            _parse_percent(self.budget)
        elif self.budget is not None and self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")
        for name, ok, bound in (
            ("schedulers", self.schedulers is None or self.schedulers >= 1, ">= 1"),
            ("replicas", self.replicas >= 1, ">= 1"),
            ("hosts", self.hosts is None or self.hosts >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("max_slots", self.max_slots >= 1, ">= 1"),
            ("lambda_d", self.lambda_d is None or 0 < self.lambda_d <= MAX_RATE,
             f"in (0, {MAX_RATE:g}]"),
            ("lambda_a", 0 < self.lambda_a <= MAX_RATE, f"in (0, {MAX_RATE:g}]"),
            ("arrival", self.arrival in ARRIVAL_KINDS, f"one of {ARRIVAL_KINDS}"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {bound}, got {getattr(self, name)!r}")

    def resolve_budget(self, n: int) -> int:
        if self.budget is None:
            return n
        if isinstance(self.budget, str):
            return max(1, round(n * _parse_percent(self.budget) / 100.0))
        return int(self.budget)


def _parse_percent(text: str) -> float:
    if not text.endswith("%"):
        raise ConfigError(f"budget must be an integer or 'NN%', got {text!r}")
    try:
        value = float(text[:-1])
    except ValueError:
        raise ConfigError(f"budget must be an integer or 'NN%', got {text!r}") from None
    if not 0.0 < value <= 100.0:
        raise ConfigError(f"budget percentage must be in (0, 100], got {text!r}")
    return value


#: Ready-made configurations for the bundled datasets.  Values not set here
#: follow ExperimentConfig defaults (controller-managed apsr, delta_hat 5%,
#: budget = host count, T=10, alpha=0.1, Poisson arrivals at 20/slot).
PRESETS: dict[str, dict] = {
    "nfv": dict(dataset="nfv", replicas=30, hosts=837),
    "google": dict(dataset="google", replicas=1, hosts=5989),
    "amazon": dict(dataset="amazon", replicas=7, hosts=876),
    # saturated cloud with rate-switching arrivals and Poisson departures
    "nfv-mmpp": dict(dataset="nfv", replicas=100, hosts=837, arrival="mmpp", lambda_d=4.0),
}

_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}


def make_config(preset: str | None = None, **overrides) -> ExperimentConfig:
    """Build an ExperimentConfig from an optional preset plus overrides."""
    base: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; valid: {tuple(PRESETS)}")
        base.update(PRESETS[preset])
    unknown = set(overrides) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    base.update(overrides)
    return ExperimentConfig(**base)


@dataclass
class SlotSeries:
    """Per-slot time series, parallel lists indexed by slot."""

    slot: list[int] = field(default_factory=list)
    utilization: list[float] = field(default_factory=list)
    schedulers: list[int] = field(default_factory=list)
    k_estimate: list[float] = field(default_factory=list)
    decline_ratio: list[float] = field(default_factory=list)  # cumulative
    attempts: list[int] = field(default_factory=list)
    successes: list[int] = field(default_factory=list)
    queries: list[int] = field(default_factory=list)


@dataclass
class RunMetrics:
    """A run's one record: its totals and, per slot, its series.  The
    manifest's metric keys and the CSV columns are read from these fields."""

    slots: int = 0
    attempts: int = 0
    successes: int = 0
    declines_no_host: int = 0
    declines_collision: int = 0
    scheduler_queries: int = 0
    controller_queries: int = 0
    truncated: bool = False
    series: SlotSeries = field(default_factory=SlotSeries)

    @property
    def declines(self) -> int:
        return self.declines_no_host + self.declines_collision

    @property
    def decline_ratio(self) -> float:
        return self.declines / self.attempts if self.attempts else 0.0

    @property
    def throughput(self) -> float:
        """Successful placements per slot over the whole run."""
        return self.successes / self.slots if self.slots else 0.0

    @property
    def mean_active(self) -> float:
        """Average number of schedulers that handled a request per slot."""
        return self.attempts / self.slots if self.slots else 0.0

    def record(self, *, attempts: int, successes: int, no_host: int, collisions: int,
               queries: int, schedulers: int, k_estimate: float, utilization: float) -> None:
        """Add one slot's outcomes; every slot is recorded once, in order."""
        s = self.series
        s.slot.append(self.slots)
        self.slots += 1
        self.attempts += attempts
        self.successes += successes
        self.declines_no_host += no_host
        self.declines_collision += collisions
        self.scheduler_queries += queries
        s.utilization.append(utilization)
        s.schedulers.append(schedulers)
        s.k_estimate.append(k_estimate)  # nan for fixed-fleet runs
        s.decline_ratio.append(self.decline_ratio)
        s.attempts.append(attempts)
        s.successes.append(successes)
        s.queries.append(queries)

    def to_dict(self) -> dict:
        """Every total (each field but the series) and the three ratios."""
        totals = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "series"}
        return {**totals, **{name: getattr(self, name)
                             for name in ("decline_ratio", "throughput", "mean_active")}}


class Simulation:
    """One deterministic run of an experiment configuration."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.dataset = load_dataset(config.dataset)
        hosts = fleet_size(config.dataset, config.hosts)
        self.state = ClusterState(fleet_capacities(self.dataset, hosts))
        self.budget = config.resolve_budget(self.state.n)
        self.trace = build_trace(self.dataset, config.replicas, (config.seed, _TRACE))
        self._arrivals = arrivals(config.arrival, config.lambda_a, len(self.trace),
                                  (config.seed, _ARRIVALS))
        self.policy = PolicyConfig(config.policy)
        self.controller = None
        if config.policy == "apsr":
            self.controller = ApsrController(self.state.n, config.delta_hat, self.budget,
                                             config.period, config.alpha, config.estimator)
        self.metrics = RunMetrics()

        self.slot = 0
        self._arrived = self._attempted = 0  # trace[_attempted:_arrived] is pending
        self._demands = tuple(f.demand for f in self.dataset.flavors)
        self._rng_departures = np.random.default_rng((config.seed, _DEPARTURES))
        self._rng_resolve = np.random.default_rng((config.seed, _RESOLVE))

    def _process_departures(self) -> None:
        resident = self.state.resident_ids
        if self.config.lambda_d is not None and resident:
            leaving = int(self._rng_departures.poisson(self.config.lambda_d))
            leaving = min(leaving, len(resident))
            if leaving:
                picks = self._rng_departures.choice(len(resident), size=leaving, replace=False)
                for request_id in [resident[i] for i in picks]:
                    self.state.complete(request_id)

    # -- per-slot work -----------------------------------------------------

    def decide(self, view: HostView, slot: int, requests: list[Request]) -> list[int | None]:
        """Target host (or None to decline) of each request; scheduler i takes ``requests[i]``.

        A decision reads only the slot's shared snapshot ``view`` and, for the
        random, ffr and wfr kinds and the sampling agents, the slot's generator.
        A snapshot kind's scheduler picks with ``choose`` among the view's
        candidates for its demand, in scheduler order; the deterministic kinds
        build no generator.  Sampling agent i takes row i of one (agents, d) draw
        of hosts and tests fits there alone, then all agents pick in one call to
        the Monte-Carlo game's kernel, on their rows sorted with misfits as n.
        """
        if not requests:
            return []
        kind = self.policy.kind
        rng = None if kind in DETERMINISTIC_KINDS else np.random.default_rng(
            (self.config.seed, _SCHEDULER, slot))
        if kind != "apsr":
            return [choose(self.policy, view, r, rng) for r in requests]
        n = self.state.n
        rows = rng.integers(0, n, size=(len(requests), self.controller.d))
        demands = np.array([r.flavor.demand for r in requests]).T[:, :, None]  # fit only at rows
        fits = (view.available.T.take(rows, axis=1) >= demands).all(axis=0)
        self.controller.record([r.flavor.id for r in requests], fits.sum(axis=1).tolist())
        # a count of 0 bounds its rank by 1, which draws nothing
        picks = pick_distinct(np.sort(np.where(fits, rows, n)), n,
                              lambda distinct: rng.integers(0, np.maximum(distinct, 1)))
        return [None if p == n else p for p in picks.tolist()]  # host ids are below n

    def run_slot(self) -> None:
        state, config, slot = self.state, self.config, self.slot

        self._process_departures()

        self._arrived += next(self._arrivals, 0)

        if self.controller is not None and self.controller.due(slot):
            self.metrics.controller_queries += self.controller.tick(state, self.dataset.flavors)

        allowed = self.controller.s if self.controller else config.schedulers
        active = min(allowed, self._arrived - self._attempted)
        requests = self.trace[self._attempted:self._attempted + active]
        self._attempted += active
        if self.policy.kind == "apsr":  # no copy: every decision is made before the first place
            view = HostView(state.available, state.capacity)
        else:  # the state keeps the snapshot kinds' fit masks and loads current
            view = HostView.of_state(state, self._demands)
        targets = self.decide(view, slot, requests)
        queried = self.controller.d if self.policy.kind == "apsr" else state.n

        order = self._rng_resolve.permutation(active)
        successes = no_host = collisions = 0
        for j in order:
            request, target = requests[j], targets[j]
            if target is None:
                no_host += 1
            elif state.place(request, target):
                successes += 1
            else:
                collisions += 1

        k_estimate = self.controller.k_estimate if self.controller else float("nan")
        self.metrics.record(attempts=active, successes=successes, no_host=no_host,
                            collisions=collisions, queries=queried * active, schedulers=allowed,
                            k_estimate=k_estimate, utilization=state.utilization())
        self.slot += 1

    def run(self) -> RunMetrics:
        while self._attempted < len(self.trace):
            if self.slot >= self.config.max_slots:
                self.metrics.truncated = True
                break
            self.run_slot()
        return self.metrics


def run_experiment(config: ExperimentConfig) -> RunMetrics:
    """Run one experiment to completion; deterministic in (config, seed)."""
    return Simulation(config).run()

