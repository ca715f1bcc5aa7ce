"""Show that every correctness check passes on real output and rejects a
corrupted copy of it, and that BENCHMARK.json matches what run.py reports.

    python3 bench/selftest.py

Uses small inputs (one nfv replica, n = 100 games), so it takes seconds.
"""

from __future__ import annotations

import copy
import json
import math
import sys

import run

run.import_apsr()
import apsr  # noqa: E402
import numpy as np  # noqa: E402
from apsr import ballsbins, engine, policies  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Summary, Tracer  # noqa: E402

failures = 0


def expect(label: str, problems: list[str], rejected: bool) -> None:
    global failures
    ok = bool(problems) == rejected
    failures += not ok
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}" + (f" ({problems[0]})" if problems else ""))


def fleet_checks() -> None:
    n = budget = 837
    for k in (0, 40, 300, 837):
        s, d = ballsbins.max_paral(n, 0.05, budget, k)
        expect(f"max_paral fleet k={k}", checks.check_fleet(n, 0.05, budget, k, s, d), False)
        expect(f"(s+1, B//(s+1)) fleet k={k}",
               checks.check_fleet(n, 0.05, budget, k, s + 1, budget // (s + 1)), True)
        if s > 2:
            expect(f"(s-1, B//(s-1)) fleet k={k}",
                   checks.check_fleet(n, 0.05, budget, k, s - 1, budget // (s - 1)), True)
        expect(f"over-budget fleet k={k}", checks.check_fleet(n, 0.05, budget, k, s, d + 1), True)
    for params in (ballsbins.BallsBinsParams(837, 300, 20, 40), ballsbins.BallsBinsParams(50, 50, 3, 1)):
        ours = checks.expected_winners(params.n, params.k, params.s, params.d)
        theirs = ballsbins.expected_happy(params)
        expect(f"expected winners {params}",
               [] if math.isclose(ours, theirs, rel_tol=1e-9) else [f"{ours} != {theirs}"], False)


def simulation_checks() -> None:
    sim = engine.Simulation(engine.make_config("nfv", replicas=1, estimator="oracle", period=1, seed=3))
    m = sim.run()
    expect("small oracle run", workloads.simulation_checks("nfv-oracle-t1", sim, m), False)

    totals = (m.attempts, len(sim.trace), m.truncated, m.successes, m.declines_no_host,
              m.declines_collision)
    expect("run totals", checks.check_run_totals(*totals), False)
    expect("attempts one short", checks.check_run_totals(totals[0] - 1, *totals[1:]), True)
    expect("truncated run", checks.check_run_totals(totals[0], totals[1], True, *totals[3:]), True)
    expect("one success lost", checks.check_run_totals(*totals[:3], totals[3] - 1, *totals[4:]), True)

    queries = list(m.series.queries)
    queries[len(queries) // 2] = sim.budget + 1
    expect("slot over budget", checks.check_slot_queries(m.series.attempts, queries, sim.budget, None), True)
    expect("snapshot queries", checks.check_slot_queries([3, 2], [30, 20], None, 10), False)
    expect("snapshot query missing", checks.check_slot_queries([3, 2], [30, 19], None, 10), True)

    by_id = {r.id: r.flavor.demand for r in sim.trace}
    placed = [(p.host_id, by_id[rid]) for rid, p in sim.state.placements.items()]
    flavors = {f.id: f.demand for f in sim.dataset.flavors}
    capacities = engine.fleet_capacities(sim.dataset, sim.state.n)
    recount = checks.recount_cluster(capacities, placed, flavors)
    census = sim.state.census(sim.dataset.flavors).per_flavor
    utilization = sim.state.utilization()
    expect("census and utilization", checks.check_cluster(census, utilization, recount), False)
    off = dict(census)
    tight = max(off, key=lambda f: sum(flavors[f]))
    off[tight] += 1
    expect("census count off by one", checks.check_cluster(off, utilization, recount), True)
    expect("utilization off by 1e-6", checks.check_cluster(census, utilization + 1e-6, recount), True)
    expect("recount missing a placement",
           checks.check_cluster(census, utilization, checks.recount_cluster(capacities, placed[1:], flavors)), True)

    expect("decline ratio", checks.check_decline_ratio(m.declines, m.attempts, 0.05), False)
    expect("decline ratio 6%", checks.check_decline_ratio(math.ceil(0.06 * m.attempts), m.attempts, 0.05), True)

    # the oracle fleets, replaced by (s+1, B // (s+1)) wherever one k ran
    series = copy.deepcopy(m.series)
    k0 = next(math.floor(k) for k, a in zip(series.k_estimate, series.attempts) if a)
    for i, k in enumerate(series.k_estimate):
        if math.floor(k) == k0:
            s = series.schedulers[i] + 1
            series.schedulers[i] = s
            series.queries[i] = series.attempts[i] * (sim.budget // s)
    expect(f"oracle fleet (s+1, B//(s+1)) at k={k0}", workloads.oracle_fleet_checks(sim, series), True)
    series = copy.deepcopy(m.series)
    i = next(i for i, a in enumerate(series.attempts) if a)
    series.queries[i] += series.attempts[i]
    expect("oracle slot charged d+1", workloads.oracle_fleet_checks(sim, series), True)


def worst_fit_checks() -> None:
    sim = engine.Simulation(engine.make_config("google", policy="wf", schedulers=10, hosts=300, seed=1))
    for _ in range(40):
        sim.run_slot()
    view = policies.HostView(ids=np.arange(sim.state.n), available=sim.state.available.copy(),
                             capacity=sim.state.capacity)
    request = max(sim.trace, key=lambda r: sum(r.flavor.demand))  # fits only some hosts
    chosen = policies.choose(policies.PolicyConfig("wf"), view, request, None)
    avail, cap = view.available.tolist(), view.capacity.tolist()
    demand = request.flavor.demand
    expect("worst-fit decision", checks.check_worst_fit(avail, cap, demand, chosen), False)
    fitting = [h for h, a in enumerate(avail) if all(w <= x for w, x in zip(demand, a))]
    other = next(h for h in fitting if h != chosen)
    expect("worst fit replaced by another fitting host", checks.check_worst_fit(avail, cap, demand, other), True)
    unfit = next(h for h, a in enumerate(avail) if not all(w <= x for w, x in zip(demand, a)))
    expect("worst fit on a host that does not fit", checks.check_worst_fit(avail, cap, demand, unfit), True)
    expect("worst fit declined with hosts free", checks.check_worst_fit(avail, cap, demand, None), True)


def analysis_checks() -> None:
    grid = list(range(0, 101))
    text = workloads.analyze(100, grid)
    expect("analyze table n=B=100", checks.check_analyze_csv(text, 100, 100, 0.05, grid), False)
    lines = text.splitlines()
    header = lines[0].split(",")
    row = lines[60].split(",")
    s = int(row[header.index("s")]) + 1
    row[header.index("s")], row[header.index("d")] = str(s), str(100 // s)
    bad = "\n".join(lines[:60] + [",".join(row)] + lines[61:])
    expect("analyze row with (s+1, B//(s+1))", checks.check_analyze_csv(bad, 100, 100, 0.05, grid), True)
    expect("analyze table missing a row",
           checks.check_analyze_csv("\n".join(lines[:30] + lines[31:]), 100, 100, 0.05, grid), True)
    row = lines[60].split(",")
    row[header.index("expected_happy")] = repr(float(row[header.index("expected_happy")]) * 1.001)
    bad = "\n".join(lines[:60] + [",".join(row)] + lines[61:])
    expect("analyze expected_happy off by 0.1%", checks.check_analyze_csv(bad, 100, 100, 0.05, grid), True)

    params = ballsbins.BallsBinsParams(100, 20, 4, 10)
    result = ballsbins.simulate_balls_and_bins(params, 20_000, 7)
    expect("Monte-Carlo mean", checks.check_mc_mean(100, 20, 4, 10, result.mean_happy, result.happy_stderr), False)
    shifted = result.mean_happy + 6 * result.happy_stderr
    expect("Monte-Carlo mean + 6 stderr", checks.check_mc_mean(100, 20, 4, 10, shifted, result.happy_stderr), True)
    counts = [int(c) for c in result.selection_counts]
    expect("selection counts", checks.check_uniform(counts), False)
    counts[3] *= 2
    expect("one bin selected twice as often", checks.check_uniform(counts), True)


def benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if tuple(w["name"] for w in spec["workloads"]) != run.WORKLOADS or run.WORKLOADS != workloads.WORKLOADS:
        problems.append("workload lists differ between BENCHMARK.json, run.py and workloads.py")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END_UNITS:
        problems.append("end-to-end metrics differ between BENCHMARK.json and run.py")
    tracer = Tracer()
    summary = Summary(tracer, 0, 0)
    reported = {**workloads.builder_metrics(summary), **workloads.layer_metrics(summary, {}, [], 0.0)}
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != {n: run.layer_unit(n) for n in reported}:
        problems.append("per-layer metrics differ between BENCHMARK.json and run.py")
    expect("BENCHMARK.json names and units", problems, False)
    wrapped = tracer.wrap(engine, "no_such_entry_point", "engine.none")
    expect("tracing a removed entry point", ["it was wrapped"] if wrapped else [], False)


if __name__ == "__main__":
    print(f"apsr {apsr.__version__} from {apsr.__file__}")
    fleet_checks()
    simulation_checks()
    worst_fit_checks()
    analysis_checks()
    benchmark_json()
    print(f"{failures} unexpected outcome(s)")
    sys.exit(1 if failures else 0)
