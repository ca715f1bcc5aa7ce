"""Adaptive parallelism controller: estimate availability, then size the fleet.

The controller runs periodically.  Between ticks, sampling schedulers feed
per-flavor counters (hosts queried / found available).  On a tick the
availability estimate k is refreshed, either from the counters ("min" or
"avg" estimator, exponentially smoothed) or from an exact census ("oracle"),
and the scheduler fleet is reconfigured to the largest (s, d) that satisfies
the decline-ratio target within the query budget.
"""

from __future__ import annotations

import math

from .ballsbins import max_paral
from .core import AvailabilityCensus, ConfigError

ESTIMATOR_MODES = ("min", "avg", "oracle")


class FlavorCounters:
    """Per-flavor query statistics accumulated by schedulers between ticks."""

    def __init__(self):
        self._queried: dict[str, int] = {}
        self._found: dict[str, int] = {}

    def record(self, flavor_id: str, queried: int, found_available: int) -> None:
        if queried < 0 or not 0 <= found_available <= queried:
            raise ValueError(
                f"need 0 <= found <= queried, got found={found_available} queried={queried}"
            )
        self._queried[flavor_id] = self._queried.get(flavor_id, 0) + queried
        self._found[flavor_id] = self._found.get(flavor_id, 0) + found_available

    def reset(self) -> None:
        self._queried.clear()
        self._found.clear()

    def availability_ratios(self) -> dict[str, float]:
        """found/queried per flavor, skipping flavors never queried this window."""
        return {
            fid: self._found.get(fid, 0) / q for fid, q in self._queried.items() if q > 0
        }


def estimate_k(
    counters: FlavorCounters, prev_k: float, alpha: float, n: int, mode: str
) -> float:
    """Counter-based availability estimate with exponential smoothing.

    The raw estimate is n times the minimum (or mean) per-flavor availability
    ratio; flavors with no queries in the window are skipped, and a window with
    no queries at all leaves the previous estimate unchanged.
    """
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
    if n < 1:
        raise ConfigError(f"need at least one host, got n={n}")
    if mode not in ("min", "avg"):
        raise ConfigError(f"unknown estimator mode {mode!r}; valid: ('min', 'avg')")
    ratios = counters.availability_ratios()
    if not ratios:
        return prev_k
    if mode == "min":
        raw = n * min(ratios.values())
    else:
        raw = n * (sum(ratios.values()) / len(ratios))
    return alpha * raw + (1.0 - alpha) * prev_k


class ApsrController:
    """Periodic controller state: the smoothed estimate k and the fleet (s, d).

    Starts from a fully available cluster (k = n) and a single scheduler that
    may spend the whole query budget.  Reconfiguration is atomic at slot
    boundaries: all requests in a slot run under that slot's (s, d).  Sampling
    schedulers record into ``counters``; each tick reads and resets them.
    """

    def __init__(
        self,
        n: int,
        delta_hat: float,
        budget: int,
        period: int = 10,
        alpha: float = 0.1,
        estimator: str = "min",
    ):
        if n < 1:
            raise ConfigError(f"need at least one host, got n={n}")
        if not 0.0 <= delta_hat <= 1.0:
            raise ConfigError(f"delta_hat must be in [0, 1], got {delta_hat}")
        if budget < 1:
            raise ConfigError(f"budget must be >= 1, got {budget}")
        if period < 1:
            raise ConfigError(f"period must be >= 1, got {period}")
        if not 0.0 < alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
        if estimator not in ESTIMATOR_MODES:
            raise ConfigError(
                f"unknown estimator {estimator!r}; valid: {ESTIMATOR_MODES}"
            )
        self.n = n
        self.delta_hat = delta_hat
        self.budget = budget
        self.period = period
        self.alpha = alpha
        self.estimator = estimator
        self.counters = FlavorCounters()
        self.k_estimate = float(n)
        self.s = 1
        self.d = budget
        self._fleet_cache: dict[int, tuple[int, int]] = {}

    def due(self, slot: int) -> bool:
        return slot % self.period == 0

    def tick(self, census: AvailabilityCensus | None = None) -> tuple[int, int]:
        """Refresh k, reconfigure the fleet, and reset the counter window."""
        if self.estimator == "oracle":
            if census is None:
                raise ConfigError("oracle estimator needs an availability census")
            self.k_estimate = float(census.min_available)
        else:
            self.k_estimate = estimate_k(
                self.counters, self.k_estimate, self.alpha, self.n, self.estimator
            )
        self.counters.reset()

        k = int(math.floor(self.k_estimate))  # conservative integer bin count
        fleet = self._fleet_cache.get(k)
        if fleet is None:
            fleet = max_paral(self.n, self.delta_hat, self.budget, k)
            self._fleet_cache[k] = fleet
        self.s, self.d = fleet
        return fleet
