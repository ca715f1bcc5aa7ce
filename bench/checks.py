"""Correctness checks for the benchmark, computed apart from the program.

Every check returns a list of problems (empty when the output is correct) so
that ``selftest.py`` can show each one rejecting a corrupted value.  The
checks take plain values rather than program objects; ``workloads.py``
extracts those values through apsr's public results.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Relative slack when an independent float formula is compared with the
# program's: both sum the same series in a different order.
REL_TOL = 1e-9


def expected_winners(n: int, k: int, s: int, d: int) -> float:
    """Expected happy agents when s agents each sample d of n bins with
    replacement and k bins are available, from the binomial sum with
    ``math.comb`` (independent of ``apsr.ballsbins``)."""
    if k == 0 or d == 0:
        return 0.0
    miss = ((n - k) / n) ** d  # one agent's sample holds no available bin
    hit = 1.0 - miss
    total = 0.0
    for f in range(1, s + 1):
        if miss == 0.0:
            weight = 1.0 if f == s else 0.0
        else:
            weight = math.exp(
                math.log(math.comb(s, f)) + f * math.log(hit) + (s - f) * math.log(miss)
            )
        total += weight * k * (1.0 - ((k - 1) / k) ** f)
    return total


def sla_margin(n: int, delta_hat: float, k: int, s: int, d: int) -> float:
    """Expected winners minus the SLA threshold s * (1 - delta_hat)."""
    return expected_winners(n, k, s, d) - s * (1.0 - delta_hat)


def check_fleet(n: int, delta_hat: float, budget: int, k: int, s: int, d: int) -> list[str]:
    """(s, d) is a maximal fleet for k: within budget, meets the SLA when
    s > 1, and (s + 1, budget // (s + 1)) does not."""
    where = f"n={n} B={budget} k={k} (s, d)=({s}, {d})"
    if s < 1 or d < 1 or s * d > budget:
        return [f"{where}: outside the query budget"]
    problems = []
    slack = REL_TOL * s
    if s > 1 and sla_margin(n, delta_hat, k, s, d) < -slack:
        problems.append(f"{where}: SLA fails at the chosen fleet")
    if s + 1 <= budget and sla_margin(n, delta_hat, k, s + 1, budget // (s + 1)) >= slack:
        problems.append(f"{where}: SLA still holds at s + 1, fleet is not maximal")
    return problems


def check_run_totals(
    attempts: int,
    trace_length: int,
    truncated: bool,
    successes: int,
    declines_no_host: int,
    declines_collision: int,
) -> list[str]:
    """Every request got exactly one attempt, and every attempt one outcome."""
    problems = []
    if truncated:
        problems.append("run was truncated")
    if attempts != trace_length:
        problems.append(f"attempts {attempts} != trace length {trace_length}")
    if successes + declines_no_host + declines_collision != attempts:
        problems.append(
            f"outcomes {successes} + {declines_no_host} + {declines_collision} "
            f"!= attempts {attempts}"
        )
    return problems


def check_slot_queries(
    attempts: list[int], queries: list[int], budget: int | None, hosts: int | None
) -> list[str]:
    """Per-slot queries stay within the budget (sampling schedulers, budget
    set) or equal attempts * hosts (full-snapshot schedulers, hosts set)."""
    for slot, (a, q) in enumerate(zip(attempts, queries)):
        if budget is not None and q > budget:
            return [f"slot {slot}: {q} queries exceed the budget {budget}"]
        if hosts is not None and q != a * hosts:
            return [f"slot {slot}: {q} queries != {a} attempts * {hosts} hosts"]
    return []


def _exact(value) -> Fraction:
    return Fraction(repr(float(value)))


def recount_cluster(
    capacities: list[tuple[float, ...]],
    placed: list[tuple[int, tuple[float, ...]]],
    flavors: dict[str, tuple[float, ...]],
) -> tuple[dict[str, int], float]:
    """Exact per-flavor available-host counts and utilization, recomputed from
    the host shapes and the (host id, demand) of every resident request.

    Values are taken as the short decimals they print as, so the arithmetic is
    exact rational arithmetic rather than the program's floats.
    """
    used = [[Fraction(0)] * len(c) for c in capacities]
    for host, demand in placed:
        row = used[host]
        for j, v in enumerate(demand):
            row[j] += _exact(v)
    caps = [[_exact(v) for v in c] for c in capacities]
    free = [[c - u for c, u in zip(cap, use)] for cap, use in zip(caps, used)]
    counts = {}
    for fid, demand in flavors.items():
        want = [_exact(v) for v in demand]
        counts[fid] = sum(all(w <= a for w, a in zip(want, row)) for row in free)
    total = sum(sum(c) for c in caps)
    utilization = float(sum(sum(u) for u in used) / total)
    return counts, utilization


def check_cluster(
    census: dict[str, int],
    utilization: float,
    recount: tuple[dict[str, int], float],
) -> list[str]:
    """The program's census and utilization equal the exact recount."""
    counts, util = recount
    problems = []
    if census != counts:
        diff = {f: (census.get(f), counts.get(f)) for f in counts if census.get(f) != counts[f]}
        problems.append(f"census differs from recount (program, recount): {diff}")
    if not math.isclose(utilization, util, rel_tol=REL_TOL, abs_tol=REL_TOL):
        problems.append(f"utilization {utilization!r} != recount {util!r}")
    return problems


def check_decline_ratio(declines: int, attempts: int, delta_hat: float) -> list[str]:
    """The paper's guarantee under exact k: declines / attempts <= delta_hat."""
    if declines > delta_hat * attempts:
        return [f"decline ratio {declines}/{attempts} exceeds {delta_hat}"]
    return []


def check_worst_fit(
    available: list[tuple[float, ...]],
    capacity: list[tuple[float, ...]],
    demand: tuple[float, ...],
    chosen: int | None,
) -> list[str]:
    """A worst-fit decision picks the fitting host with the least (load, id),
    where load is the largest used fraction over resources; it declines only
    when no host fits.  Plain loop over the snapshot."""
    best = None
    for host, (avail, cap) in enumerate(zip(available, capacity)):
        if all(w <= a + REL_TOL for w, a in zip(demand, avail)):
            load = max((c - a) / c for c, a in zip(cap, avail))
            if best is None or (load, host) < best:
                best = (load, host)
    expected = None if best is None else best[1]
    if chosen != expected:
        return [f"worst fit chose host {chosen}, the least (load, id) fitting host is {expected}"]
    return []


def check_analyze_csv(text: str, n: int, budget: int, delta_hat: float, grid: list[int]) -> list[str]:
    """Every row of an ``apsr analyze`` table is a maximal fleet for its k,
    its expected_happy column matches the independent formula, and the rows
    cover the requested grid."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    problems = []
    if [int(r["k"]) for r in rows] != grid:
        problems.append("analyze rows do not cover the requested k grid")
    for r in rows:
        if int(r["n"]) != n or int(r["budget"]) != budget:
            problems.append(f"row {r} has the wrong n or budget")
            continue
        k, s, d = int(r["k"]), int(r["s"]), int(r["d"])
        problems += check_fleet(n, delta_hat, budget, k, s, d)
        want = expected_winners(n, k, s, d)
        if not math.isclose(float(r["expected_happy"]), want, rel_tol=REL_TOL, abs_tol=REL_TOL):
            problems.append(f"k={k}: expected_happy {r['expected_happy']} != {want!r}")
    return problems


def check_mc_mean(n: int, k: int, s: int, d: int, mean_happy: float, stderr: float) -> list[str]:
    """Monte-Carlo mean winners lie within 5 standard errors of the closed form."""
    want = expected_winners(n, k, s, d)
    if abs(mean_happy - want) > 5.0 * stderr + REL_TOL * max(1.0, want):
        return [f"(n, k, s, d)=({n}, {k}, {s}, {d}): mean winners {mean_happy} vs {want} "
                f"(stderr {stderr})"]
    return []


def check_uniform(counts: list[int]) -> list[str]:
    """Selections are uniform over the available bins: the chi-square statistic
    of the counts lies within 5 standard errors of its mean k - 1.  Given the
    number of selections the counts are multinomial with equal shares."""
    k, total = len(counts), sum(counts)
    if k < 2 or total == 0:
        return []
    expect = total / k
    chi2 = sum((c - expect) ** 2 for c in counts) / expect
    z = (chi2 - (k - 1)) / math.sqrt(2.0 * (k - 1))
    if abs(z) > 5.0:
        return [f"selection counts over {k} bins are not uniform (chi-square z = {z:.2f})"]
    return []
