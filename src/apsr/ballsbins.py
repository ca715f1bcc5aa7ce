"""Closed-form statistics for parallel sampling schedulers, plus a Monte-Carlo twin.

The underlying game: ``s`` agents each sample ``d`` of ``n`` bins independently
and uniformly at random, *with replacement*; ``k`` of the bins are available.
An agent whose sample contains at least one available bin ("potentially happy")
picks uniformly among the distinct available bins it saw.  Each available bin
accepts at most one agent, so an agent is "happy" iff it wins the bin it chose.

Sampling with replacement is what makes ``sigma = 1 - ((n-k)/n)**d`` an exact
identity rather than a bound; the simulator's sampling agents pick with the
Monte-Carlo game's own kernel, ``pick_distinct``, which treats every value
>= its sentinel as unavailable: the game draws bins 0..n-1 with sentinel k.
Below n = 2**31 the game draws int32, since numpy bounds int32 and int64 draws
below 2**32 with one 32-bit Lemire step: the same values and generator state,
at half the memory to sort and gather.  ``k == 0`` and ``d == 0``
yield zero probability and zero expected winners instead of errors, so
callers degrade gracefully at full utilization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def sigma(n: int, k: int, d: int) -> float:
    """Probability that one agent's d-sample hits at least one of k available bins."""
    if n < 1:
        raise ValueError(f"need at least one bin, got n={n}")
    if not 0 <= k <= n:
        raise ValueError(f"available bins k={k} outside [0, {n}]")
    if d < 0:
        raise ValueError(f"samples per agent must be >= 0, got d={d}")
    return 1.0 - ((n - k) / n) ** d


def expected_happy(params: BallsBinsParams) -> float:
    """Expected number of happy agents for one play of the game.

    Given f potentially happy agents, k (1 - x^f) bins win on average, x = (k-1)/k.
    f ~ Bin(s, sigma) has E[x^f] = (1 - sigma + sigma x)^s, so E = k (1 - (1 - sigma/k)^s).
    """
    return _happy(params.n, params.k, params.s, params.d)


def _happy(n: int, k: int, s: int, d: int) -> float:
    """``expected_happy`` of (n, k, s, d) already checked: sigma inlined, no checks."""
    if k == 0 or d == 0:
        return 0.0
    return k * (1.0 - (1.0 - (1.0 - ((n - k) / n) ** d) / k) ** s)


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
    while s + 1 <= budget and _happy(n, k, s + 1, budget // (s + 1)) >= (s + 1) * (1.0 - delta_hat):
        s += 1  # satisfy_sla(n, delta_hat, k, s + 1, budget // (s + 1)), checked once above
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
    def mean_happy(self) -> float:
        return self.happy_total / self.trials

    @property
    def happy_stderr(self) -> float:
        """Standard error of mean_happy."""
        mean = self.mean_happy
        var = self.happy_sq_total / self.trials - mean * mean
        return float(np.sqrt(max(var, 0.0) / self.trials))


def pick_distinct(draws: np.ndarray, sentinel: int, rank) -> np.ndarray:
    """Each row's pick among the distinct available values it drew.

    ``draws`` is an (..., d) integer array whose unavailable entries are any
    value >= ``sentinel``, a value above every available one; it is sorted in
    place along its last axis.  ``rank(distinct)`` gets the (...) array of each
    row's distinct available count and returns each row's rank in
    [0, distinct) (read only where distinct > 0).  Returns the (...) array of
    picks, of ``draws``' dtype: the available value of that rank in ascending
    order, or ``sentinel`` where a row drew nothing available.  Uniform ranks
    give the sampling agent's rule, a uniform pick among the distinct available
    bins (hosts) it saw; the game and the engine both pick through here.
    """
    draws.sort(axis=-1)
    shape, d = draws.shape[:-1], draws.shape[-1]
    flat = draws.reshape(-1)
    first = flat < sentinel
    first[1:] &= flat[1:] != flat[:-1]  # a row's first column is compared with the row above,
    first.reshape(draws.shape)[..., :1] = draws[..., :1] < sentinel  # so it is redone
    # flat indices of each row's distinct available values in ascending order,
    # row after row; a row's run starts after those of earlier rows
    hits = first.nonzero()[0]
    values = flat.take(hits)
    hits //= max(d, 1)  # each hit's row; d = 0 hits nothing
    counts = np.bincount(hits, minlength=math.prod(shape))
    position = counts.cumsum() - counts + np.asarray(rank(counts.reshape(shape)), np.int64).ravel()
    # a row with nothing available reads a clipped position, then takes the sentinel
    picks = values.take(position, mode="clip") if values.size else counts.astype(draws.dtype)
    picks[counts == 0] = sentinel
    return picks.reshape(shape)


#: Trials the Monte-Carlo game draws at once; the draws depend on it.
CHUNK = 16384
#: Draws the game picks at once, which bounds the temporaries; no output depends on it.
_BLOCK_DRAWS = 2**18


def simulate_balls_and_bins(params: BallsBinsParams, trials: int, seed) -> SimulationResult:
    """Play the sampling game ``trials`` times with a seeded generator.

    Vectorized over ``CHUNK`` trials at a time: each agent picks through
    ``pick_distinct`` with a uniform rank per agent.  A bin selected by one or
    more potentially happy agents produces exactly one happy agent.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n, k, s, d = params.n, params.k, params.s, params.d
    selection_counts = np.zeros(k, dtype=np.int64)
    if k == 0 or d == 0:
        return SimulationResult(trials, 0, 0, 0, selection_counts)

    rng = np.random.default_rng(seed)
    dtype = np.int32 if n < 2**31 else np.int64  # the int64 draw's values; k <= n fits too
    block = max(1, _BLOCK_DRAWS // (s * d))  # trials per pick_distinct call
    ph_total = 0
    happy_total = 0
    happy_sq_total = 0
    done = 0
    while done < trials:
        m = min(CHUNK, trials - done)
        vals = rng.integers(0, n, size=(m, s, d), dtype=dtype)
        selected = np.empty((m, s), dtype)
        for lo in range(0, m, block):  # blocks in trial order draw the chunk's uniforms in order
            selected[lo:lo + block] = pick_distinct(
                vals[lo:lo + block], k, lambda c: (rng.random(c.shape) * c).astype(np.int64))
        del vals
        # a trial's winners are the distinct available bins its agents selected
        selected.sort(axis=1)
        won = selected < k
        ph_total += int(won.sum())
        won[:, 1:] &= selected[:, 1:] != selected[:, :-1]
        happy = won.sum(axis=1)

        happy_total += int(happy.sum())
        happy_sq_total += int((happy * happy).sum())
        selection_counts += np.bincount(selected.ravel(), minlength=k + 1)[:k]
        done += m

    return SimulationResult(trials, ph_total, happy_total, happy_sq_total, selection_counts)
