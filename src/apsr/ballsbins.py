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
The game plays blocks of about 2**18 draws start to finish, each drawn at the
narrowest integer dtype holding n, so its working set is one block's draws and
temporaries whatever the trial count.  ``k == 0`` and ``d == 0`` yield zero
probability and zero expected winners instead of errors, so callers degrade
gracefully at full utilization.
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
    BallsBinsParams(n, k, 1, d)  # checks n, k and d
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


def max_paral(n: int, delta_hat: float, budget: int, k: int) -> tuple[int, int]:
    """Greedy maximal agent count under the SLA and query budget.

    Starts at s = 1 and keeps growing s while (s+1, budget // (s+1)) still
    satisfies the SLA, ``expected_happy >= (s+1) * (1 - delta_hat)``; s is
    additionally capped at budget so that d >= 1.
    Returns (s, budget // s): s * d <= budget always holds, and the SLA
    condition holds for the returned pair whenever s > 1.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    BallsBinsParams(n, k, 1, budget)  # the first fleet tried, (1, budget): checks n and k
    if not 0.0 <= delta_hat <= 1.0:
        raise ValueError(f"delta_hat must be in [0, 1], got {delta_hat}")
    s = 1
    while s + 1 <= budget and _happy(n, k, s + 1, budget // (s + 1)) >= (s + 1) * (1.0 - delta_hat):
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
    def mean_happy(self) -> float:
        return self.happy_total / self.trials

    @property
    def happy_stderr(self) -> float:
        """Standard error of mean_happy."""
        mean = self.mean_happy
        var = self.happy_sq_total / self.trials - mean * mean
        return float(np.sqrt(max(var, 0.0) / self.trials))


def pick_distinct(draws: np.ndarray, sentinel: int, rng: np.random.Generator) -> np.ndarray:
    """Each row's uniform pick among the distinct available values it drew.

    ``draws`` is an (..., d) integer array, sorted along its last axis, whose
    unavailable entries are any value >= ``sentinel``, a value above every
    available one; it is not changed.  One ``rng.random(...)`` call draws a
    double u per row, in row order, also for rows that drew nothing available,
    and a row with c distinct available values takes the one of rank
    ``floor(u * c)`` in ascending order.  Returns the (...) array of picks, of
    ``draws``' dtype, with ``sentinel`` where a row drew nothing available.
    This is the sampling agent's rule, a uniform pick among the distinct
    available bins (hosts) it saw; the game and the engine both pick here.
    """
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
    position = counts.cumsum() - counts + (rng.random(shape).ravel() * counts).astype(np.int64)
    # a row with nothing available reads a clipped position, then takes the sentinel
    picks = values.take(position, mode="clip") if values.size else counts.astype(draws.dtype)
    picks[counts == 0] = sentinel
    return picks.reshape(shape)


#: Draws the game makes and picks at once; the draws depend on it, and it bounds the working set.
_BLOCK_DRAWS = 2**18


def simulate_balls_and_bins(params: BallsBinsParams, trials: int, seed) -> SimulationResult:
    """Play the sampling game ``trials`` times with a seeded generator.

    Vectorized over blocks of about ``_BLOCK_DRAWS`` draws, each played start
    to finish: its bins are drawn at the narrowest dtype holding n and sorted
    along their rows, then ``pick_distinct`` picks with a uniform rank per
    agent, drawn after the block's bins.  A bin selected by one or more
    potentially happy agents produces exactly one happy agent.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n, k, s, d = params.n, params.k, params.s, params.d
    selection_counts = np.zeros(k, dtype=np.int64)
    if k == 0 or d == 0:
        return SimulationResult(trials, 0, 0, 0, selection_counts)

    rng = np.random.default_rng(seed)
    # holds every bin below n and the sentinel k <= n
    dtype = np.int16 if n < 2**15 else np.int32 if n < 2**31 else np.int64
    block = max(1, _BLOCK_DRAWS // (s * d))  # trials per block
    ph_total = happy_total = happy_sq_total = 0
    for done in range(0, trials, block):
        drawn = rng.integers(0, n, size=(min(block, trials - done), s, d), dtype=dtype)
        drawn.sort(axis=-1)
        selected = pick_distinct(drawn, k, rng)
        # a trial's winners are the distinct available bins its agents selected
        selected.sort(axis=1)
        won = selected < k
        ph_total += int(won.sum())
        won[:, 1:] &= selected[:, 1:] != selected[:, :-1]
        happy = won.sum(axis=1)

        happy_total += int(happy.sum())
        happy_sq_total += int((happy * happy).sum())
        selection_counts += np.bincount(selected.ravel(), minlength=k + 1)[:k]

    return SimulationResult(trials, ph_total, happy_total, happy_sq_total, selection_counts)
