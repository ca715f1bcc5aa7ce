"""Adaptive parallelism controller: estimate availability, then size the fleet.

The controller runs periodically.  Between ticks it records each slot's
sampling decisions into a window of per-flavor counts (hosts queried / found
available).  On a tick the availability estimate k is refreshed, either from
the window ("min" or "avg" estimator, exponentially smoothed) or from an exact
census of the cluster ("oracle", which queries every host and records no
window; k is the least count among the flavors that still fit some host), and
the scheduler fleet is reconfigured to the largest (s, d) that satisfies the
decline-ratio target within the query budget.
"""

from __future__ import annotations

import math
from typing import Iterable

from .ballsbins import max_paral
from .core import ClusterState, ConfigError, Flavor

ESTIMATOR_MODES = ("min", "avg", "oracle")


class ApsrController:
    """Periodic controller state: the smoothed estimate k and the fleet (s, d).

    Starts from a fully available cluster (k = n) and a single scheduler that
    may spend the whole query budget.  Reconfiguration is atomic at slot
    boundaries: all requests in a slot run under that slot's (s, d).  The
    window ``queried`` / ``found`` holds the per-flavor host counts of the
    decisions recorded since the last tick; each tick reads and resets it.
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
            raise ConfigError(f"estimator must be one of {ESTIMATOR_MODES}, got {estimator!r}")
        self.n = n
        self.delta_hat = delta_hat
        self.budget = budget
        self.period = period
        self.alpha = alpha
        self.estimator = estimator
        self.queried: dict[str, int] = {}  # flavor id -> hosts queried this window
        self.found: dict[str, int] = {}  # flavor id -> queried hosts that fit it
        self.k_estimate = float(n)
        self.s = 1
        self.d = budget

    def due(self, slot: int) -> bool:
        return slot % self.period == 0

    def record(self, flavor_ids: Iterable[str], found: Iterable[int]) -> None:
        """Add a slot's decisions to the window: decision j queried d hosts for
        flavor ``flavor_ids[j]`` and found ``found[j]`` of them available.  The
        oracle estimate reads the census alone, so it records nothing."""
        if self.estimator == "oracle":
            return
        for flavor_id, hits in zip(flavor_ids, found):
            if not 0 <= hits <= self.d:
                raise ValueError(f"need 0 <= found <= d, got found={hits} d={self.d}")
            self.queried[flavor_id] = self.queried.get(flavor_id, 0) + self.d
            self.found[flavor_id] = self.found.get(flavor_id, 0) + hits

    def tick(self, state: ClusterState, flavors: Iterable[Flavor]) -> int:
        """Refresh k, reconfigure the fleet and reset the window; returns the
        hosts queried.  The oracle takes k from a census of ``state`` over
        ``flavors`` (the least count among flavors that fit some host) and
        queries its n hosts.  The min (avg) estimate smooths n times the least
        (mean) per-flavor found/queried ratio of the window and queries none;
        an empty window leaves k unchanged."""
        queries = 0
        if self.estimator == "oracle":
            self.k_estimate = float(state.census(flavors).min_available)
            queries = state.n
        elif self.queried:
            ratios = [self.found[fid] / q for fid, q in self.queried.items()]
            if self.estimator == "min":
                raw = self.n * min(ratios)
            else:
                raw = self.n * (sum(ratios) / len(ratios))
            self.k_estimate = self.alpha * raw + (1.0 - self.alpha) * self.k_estimate
        self.queried.clear()
        self.found.clear()

        k = int(math.floor(self.k_estimate))  # conservative integer bin count
        self.s, self.d = max_paral(self.n, self.delta_hat, self.budget, k)
        return queries
