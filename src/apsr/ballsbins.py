"""Closed-form statistics for parallel sampling schedulers, plus a Monte-Carlo twin.

The underlying game: ``s`` agents each sample ``d`` of ``n`` bins independently
and uniformly at random, *with replacement*; ``k`` of the bins are available.
An agent whose sample contains at least one available bin ("potentially happy")
picks uniformly among the distinct available bins it saw.  Each available bin
accepts at most one agent, so an agent is "happy" iff it wins the bin it chose.

Sampling with replacement is what makes ``sigma = 1 - ((n-k)/n)**d`` an exact
identity rather than a bound; the simulator's sampling agents follow the same
convention.  ``k == 0`` and ``d == 0`` yield zero probability and zero expected
winners instead of errors, so callers degrade gracefully at full utilization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy


@dataclass(frozen=True)
class BallsBinsParams:
    """(n, k, s, d): bins, available bins, agents, samples per agent."""

    n: int
    k: int
    s: int
    d: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one bin, got n={self.n}")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"available bins k={self.k} outside [0, {self.n}]")
        if self.s < 1:
            raise ValueError(f"need at least one agent, got s={self.s}")
        if self.d < 0:
            raise ValueError(f"samples per agent must be >= 0, got d={self.d}")


@dataclass(frozen=True)
class SlaBudget:
    """Decline-ratio target plus the per-slot query budget shared by all agents."""

    delta_hat: float
    budget: int

    def __post_init__(self):
        if not 0.0 <= self.delta_hat <= 1.0:
            raise ValueError(f"delta_hat must be in [0, 1], got {self.delta_hat}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")


def sigma(n: int, k: int, d: int) -> float:
    """Probability that one agent's d-sample hits at least one of k available bins."""
    if n < 1:
        raise ValueError(f"need at least one bin, got n={n}")
    if not 0 <= k <= n:
        raise ValueError(f"available bins k={k} outside [0, {n}]")
    if d < 0:
        raise ValueError(f"samples per agent must be >= 0, got d={d}")
    return 1.0 - ((n - k) / n) ** d


def binom_pmf(f, s: int, p: float):
    """Binomial pmf C(s, f) p^f (1-p)^(s-f), evaluated in log space.

    Uses log-gamma so it stays stable well past s = 10**4.  ``f`` may be a
    scalar or an array; ``xlogy`` takes care of the p = 0 and p = 1 edges.
    """
    if s < 0:
        raise ValueError(f"trial count must be >= 0, got s={s}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success probability must be in [0, 1], got {p}")
    f_arr = np.asarray(f, dtype=float)
    if np.any(f_arr < 0) or np.any(f_arr > s):
        raise ValueError(f"success count f={f} outside [0, {s}]")
    log_pmf = (
        gammaln(s + 1.0)
        - gammaln(f_arr + 1.0)
        - gammaln(s - f_arr + 1.0)
        + xlogy(f_arr, p)
        + xlogy(s - f_arr, 1.0 - p)
    )
    pmf = np.exp(log_pmf)
    return float(pmf) if np.isscalar(f) else pmf


def expected_happy_given_f(k: int, f: int) -> float:
    """Expected winners when f agents each pick uniformly among k bins.

    Equals the expected number of occupied bins, k * (1 - ((k-1)/k)**f);
    zero when there are no bins or no agents.
    """
    if k < 0:
        raise ValueError(f"bin count must be >= 0, got k={k}")
    if f < 0:
        raise ValueError(f"agent count must be >= 0, got f={f}")
    if k == 0 or f == 0:
        return 0.0
    return k * (1.0 - ((k - 1) / k) ** f)


def expected_happy(params: BallsBinsParams) -> float:
    """Expected number of happy agents for one play of the game.

    Conditions on the number of potentially happy agents f, which is binomial
    with success probability sigma(n, k, d).
    """
    n, k, s, d = params.n, params.k, params.s, params.d
    if k == 0 or d == 0:
        return 0.0
    sig = sigma(n, k, d)
    f = np.arange(1, s + 1, dtype=float)
    conditional = k * (1.0 - ((k - 1) / k) ** f)
    return float(binom_pmf(f, s, sig) @ conditional)


def satisfy_sla(n: int, delta_hat: float, k: int, s: int, d: int) -> bool:
    """Does configuration (s, d) meet the decline target:
    expected_happy >= s * (1 - delta_hat)?"""
    if not 0.0 <= delta_hat <= 1.0:
        raise ValueError(f"delta_hat must be in [0, 1], got {delta_hat}")
    return expected_happy(BallsBinsParams(n, k, s, d)) >= s * (1.0 - delta_hat)


def max_paral(n: int, delta_hat: float, budget: int, k: int) -> tuple[int, int]:
    """Greedy maximal agent count under the SLA and query budget.

    Starts at s = 1 and keeps growing s while (s+1, budget // (s+1)) still
    satisfies the SLA; s is additionally capped at budget so that d >= 1.
    Returns (s, budget // s): s * d <= budget always holds, and the SLA
    condition holds for the returned pair whenever s > 1.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    sigma(n, k, 0)  # reuses the (n, k) range validation
    if not 0.0 <= delta_hat <= 1.0:
        raise ValueError(f"delta_hat must be in [0, 1], got {delta_hat}")
    s = 1
    while s + 1 <= budget and satisfy_sla(n, delta_hat, k, s + 1, budget // (s + 1)):
        s += 1
    return s, budget // s


@dataclass
class SimulationResult:
    """Empirical summary of repeated plays of the sampling game.

    ``selection_counts[j]`` counts how often a potentially happy agent chose
    available bin j (bins are labelled 0..k-1; labels are exchangeable).
    """

    trials: int
    potentially_happy_total: int
    happy_total: int
    happy_sq_total: int
    selection_counts: np.ndarray

    @property
    def mean_potentially_happy(self) -> float:
        return self.potentially_happy_total / self.trials

    @property
    def mean_happy(self) -> float:
        return self.happy_total / self.trials

    @property
    def happy_stderr(self) -> float:
        """Standard error of mean_happy."""
        mean = self.mean_happy
        var = self.happy_sq_total / self.trials - mean * mean
        return float(np.sqrt(max(var, 0.0) / self.trials))


def simulate_balls_and_bins(
    params: BallsBinsParams, trials: int, seed, chunk: int = 16384
) -> SimulationResult:
    """Play the sampling game ``trials`` times with a seeded generator.

    Vectorized over trials: agents' distinct available samples are extracted by
    sorting each d-sample and masking first occurrences, then one of the
    distinct bins is picked uniformly.  A bin selected by one or more
    potentially happy agents produces exactly one happy agent.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n, k, s, d = params.n, params.k, params.s, params.d
    selection_counts = np.zeros(k, dtype=np.int64)
    if k == 0 or d == 0:
        return SimulationResult(trials, 0, 0, 0, selection_counts)

    rng = np.random.default_rng(seed)
    ph_total = 0
    happy_total = 0
    happy_sq_total = 0
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        vals = rng.integers(0, n, size=(m, s, d))
        vals[vals >= k] = n  # unavailable draws get sentinel n so they sort to the tail
        vals.sort(axis=2)
        first = vals < n
        first[:, :, 1:] &= vals[:, :, 1:] != vals[:, :, :-1]
        distinct = first.sum(axis=2)
        ph = distinct > 0
        pick = (rng.random((m, s)) * distinct).astype(np.int64)
        cumulative = np.cumsum(first, axis=2, dtype=np.int32)
        del first
        # the running count of distinct bins first reaches pick + 1 at the picked bin
        positions = (cumulative == (pick + 1)[:, :, None]).argmax(axis=2)
        del cumulative
        selected = np.take_along_axis(vals, positions[:, :, None], axis=2)[:, :, 0]
        del vals
        selected[~ph] = k  # sentinel for agents that saw no available bin
        # a trial's winners are the distinct available bins its agents selected
        selected.sort(axis=1)
        won = selected < k
        won[:, 1:] &= selected[:, 1:] != selected[:, :-1]
        happy = won.sum(axis=1)

        ph_total += int(ph.sum())
        happy_total += int(happy.sum())
        happy_sq_total += int((happy * happy).sum())
        selection_counts += np.bincount(selected.ravel(), minlength=k + 1)[:k]
        done += m

    return SimulationResult(trials, ph_total, happy_total, happy_sq_total, selection_counts)
