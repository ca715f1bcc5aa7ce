"""Independent reference computations used to pin expected test values.

These deliberately avoid the library's own code paths: enumeration over raw
sample tuples with exact rational arithmetic, binomial terms via math.comb,
and plain double loops over hosts and flavors.  ``meets_sla`` is the one
exception: it states the SLA that fleet sizing promises through the library's
closed form ``expected_happy``, which is itself checked against enumeration.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np

from apsr.ballsbins import BallsBinsParams, expected_happy
from apsr.core import fits

_CHOICE_CACHE: dict[tuple, Fraction] = {}


def _mean_distinct_chosen(sets_key: tuple[tuple[int, ...], ...]) -> Fraction:
    """Exact E[#distinct bins chosen] for agents holding the given option sets.

    Enumerates every combination of per-agent uniform choices; an agent with an
    empty option set fails and chooses nothing.
    """
    cached = _CHOICE_CACHE.get(sets_key)
    if cached is not None:
        return cached
    option_lists = [options if options else (None,) for options in sets_key]
    denominator = math.prod(len(options) for options in option_lists)
    acc = 0
    for picks in product(*option_lists):
        acc += len({p for p in picks if p is not None})
    result = Fraction(acc, denominator)
    _CHOICE_CACHE[sets_key] = result
    return result


def enumerated_expected_happy(n: int, k: int, d: int, s: int) -> Fraction:
    """Exact expected winner count by brute-force enumeration.

    Every one of the n**d ordered sample tuples per agent is enumerated and
    reduced to its set of distinct available bins (bins 0..k-1 are available).
    Agents are independent and identically distributed, so a joint outcome is a
    multiset of such sets weighted by a multinomial coefficient; choice
    outcomes are then enumerated exactly per joint outcome.
    """
    if k == 0 or d == 0 or s == 0:
        return Fraction(0)
    subset_weight: Counter = Counter()
    for sample in product(range(n), repeat=d):
        subset_weight[frozenset(b for b in sample if b < k)] += 1
    subsets = sorted(subset_weight, key=lambda fs: (len(fs), sorted(fs)))
    weights = [subset_weight[fs] for fs in subsets]

    total = Fraction(0)
    for combo in combinations_with_replacement(range(len(subsets)), s):
        multiplicity: Counter = Counter(combo)
        arrangements = math.factorial(s)
        for m in multiplicity.values():
            arrangements //= math.factorial(m)
        weight = arrangements * math.prod(weights[i] for i in combo)
        sets_key = tuple(tuple(sorted(subsets[i])) for i in combo)
        total += weight * _mean_distinct_chosen(sets_key)
    return total / Fraction(n**d) ** s


def direct_expected_happy(n: int, k: int, s: int, d: int) -> float:
    """Expected winners via exact integer binomial coefficients (math.comb)."""
    if k == 0 or d == 0:
        return 0.0
    sig = 1.0 - ((n - k) / n) ** d
    total = 0.0
    for f in range(1, s + 1):
        pmf = math.comb(s, f) * sig**f * (1.0 - sig) ** (s - f)
        total += pmf * k * (1.0 - ((k - 1) / k) ** f)
    return total


def scan_max_paral(n: int, delta_hat: float, budget: int, k: int) -> tuple[int, int]:
    """Largest agent count by upward scan, stopping at the first failure."""
    s = 1
    for candidate in range(2, budget + 1):
        d = budget // candidate
        if direct_expected_happy(n, k, candidate, d) >= candidate * (1.0 - delta_hat):
            s = candidate
        else:
            break
    return s, budget // s


def meets_sla(n: int, delta_hat: float, k: int, s: int, d: int) -> bool:
    """Does fleet (s, d) meet the decline target with k of n hosts available:
    expected winners ``expected_happy >= s * (1 - delta_hat)``?"""
    return expected_happy(BallsBinsParams(n, k, s, d)) >= s * (1.0 - delta_hat)


def replay_balls_and_bins(n: int, k: int, s: int, d: int, trials: int, seed, block: int):
    """Plays the sampling game trial by trial in plain Python, on the draws the
    Monte-Carlo kernel makes: per block of m trials, an (m, s, d) array of bin
    draws, of int16 below n = 2**15, int32 below 2**31, else int64, and then
    an (m, s) array of uniforms, one per agent's pick.

    Returns (potentially happy total, happy total, happy squared total,
    per-bin selection counts).
    """
    rng = np.random.default_rng(seed)
    dtype = np.int16 if n < 2**15 else np.int32 if n < 2**31 else np.int64
    ph_total = happy_total = happy_sq_total = 0
    counts = [0] * k
    for done in range(0, trials, block):
        m = min(block, trials - done)
        draws = rng.integers(0, n, size=(m, s, d), dtype=dtype).tolist()
        uniforms = rng.random((m, s)).tolist()
        for samples, picks in zip(draws, uniforms):
            won = set()
            for sample, u in zip(samples, picks):
                seen = sorted({b for b in sample if b < k})
                if seen:
                    ph_total += 1
                    chosen = seen[int(u * len(seen))]
                    counts[chosen] += 1
                    won.add(chosen)
            happy_total += len(won)
            happy_sq_total += len(won) ** 2
    return ph_total, happy_total, happy_sq_total, counts


def replay_sampling_decisions(seed: int, slot: int, requests, available, d: int):
    """The targets of one slot's sampling agents, by a plain loop over the agents.

    The slot draws from ``default_rng((seed, 3, slot))``, 3 being the engine's
    scheduler sub-stream tag.  Agent i takes ``requests[i]``.  Every agent in
    order draws ``integers(0, n, d)`` hosts.  Then every agent, in order, draws
    ``integers(max(count, 1))``, count being the number of its sorted distinct
    sampled hosts whose ``available`` row passes ``core.fits``.  An agent takes
    its host of that rank, or declines (None) when none fits.
    """
    n = len(available)
    rng = np.random.default_rng((seed, 3, slot))
    samples = [rng.integers(0, n, size=d).tolist() for _ in requests]
    seen = [sorted({h for h in sample if fits(request.flavor.demand, available[h])})
            for request, sample in zip(requests, samples)]
    ranks = [int(rng.integers(max(len(hosts), 1))) for hosts in seen]
    return [hosts[rank] if hosts else None for hosts, rank in zip(seen, ranks)]


def reference_choice(kind, ids, available, capacity, demand):
    """The host a deterministic snapshot policy picks, by a plain loop.

    Returns the least (key, id) among hosts that pass ``core.fits``, or None
    when none does.  Keys: ff 0; wf the host load (the worst per-resource
    used fraction); adaptive the wf key while the mean load over all hosts is
    below 0.6, else the ff key; distfromdiag the squared distance of
    the post-placement usage fractions from their mean, as an exact fraction,
    so exactly tied hosts fall to the least id.
    """
    loads = [max((c - a) / c for c, a in zip(cap, avail)) for cap, avail in zip(capacity, available)]
    if kind == "adaptive":
        kind = "wf" if sum(loads) / len(loads) < 0.6 else "ff"
    best = None
    for host, cap, avail, load in zip(ids, capacity, available, loads):
        if not fits(demand, avail):
            continue
        if kind == "ff":
            key = 0.0
        elif kind == "wf":
            key = load
        else:
            usage = [Fraction(c - (a - w), c) for c, a, w in zip(cap, avail, demand)]
            mean = sum(usage) / len(usage)
            key = sum((u - mean) * (u - mean) for u in usage)
        if best is None or (key, host) < best:
            best = (key, host)
    return None if best is None else best[1]


def census_brute(state, flavors) -> dict[str, int]:
    """Per-flavor available-host counts by a direct double loop over the rows."""
    rows = state.available.tolist()
    return {flavor.id: sum(fits(flavor.demand, row) for row in rows) for flavor in flavors}


class ReplayBook:
    """Mirrors place/complete calls and recounts the expected availability from
    scratch in plain Python ints: capacity minus the sum of resident demands.
    Integer units make the comparison exact, with no tolerance.
    """

    def __init__(self, capacities):
        self.capacities = [[int(v) for v in c] for c in capacities]
        self.resident: dict[int, tuple[int, tuple[int, ...]]] = {}  # id -> (host, demand)

    def place(self, request_id: int, host_id: int, demand) -> None:
        self.resident[request_id] = (host_id, tuple(int(v) for v in demand))

    def complete(self, request_id: int) -> None:
        del self.resident[request_id]

    def expected_available(self) -> list[list[int]]:
        rows = [list(c) for c in self.capacities]
        for host_id, demand in self.resident.values():
            for j, v in enumerate(demand):
                rows[host_id][j] -= v
        return rows
