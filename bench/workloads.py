"""The benchmark's four workloads, driven through apsr's public functions.

An operation is one simulation run, or one analytic call, together with its
correctness checks.  A round is a fixed list of operations; a measured run
repeats whole rounds, so the share of failed operations never depends on how
long the run lasts.  Declined VM requests are outcomes the model predicts, not
failed operations.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from typing import Callable, Iterator, NamedTuple

from apsr import ballsbins, cli, controller, core, engine
import checks

SIMULATIONS = {
    # the paper's exact-k guarantee run: census and fleet sizing every slot
    "nfv-oracle-t1": ("nfv", dict(estimator="oracle", period=1)),
    # the only workload that releases capacity: rate-switching arrivals, departures
    "nfv-mmpp-churn": ("nfv-mmpp", {}),
    # full-snapshot worst fit on the large fleet: no controller, no census
    "google-wf-snapshot": ("google", dict(policy="wf", schedulers=10)),
}
FLEET_ANALYSIS = "fleet-analysis"
WORKLOADS = tuple(SIMULATIONS) + (FLEET_ANALYSIS,)

DELTA_HAT = 0.05
ANALYZE_N = 837  # nfv fleet, every k
SPARSE_N = 5989  # google fleet, every SPARSE_STRIDE-th k from a seeded offset
SPARSE_STRIDE = 240
SPARSE_POINTS = 25
MC_N = 837
MC_BUDGET = 250  # keeps s * d near 250, so one 100k-trial game takes about a second
MC_TRIALS = 100_000
MC_KS = (80, 200, 350)  # fixed, so the game's figures vary only by its draws
GAME_SAMPLE_EVERY = 500  # traced google run: check every 500th worst-fit decision


class Operation(NamedTuple):
    """One unit of measured work: ``work()`` returns the value ``verify`` checks."""

    name: str
    work: Callable[[], object]
    verify: Callable[[object], list[str]]


def new_simulation(workload: str, seed: int) -> engine.Simulation:
    preset, overrides = SIMULATIONS[workload]
    return engine.Simulation(engine.make_config(preset, seed=seed, **overrides))


def fleet_inputs(seed: int) -> dict:
    """The analysis grids and Monte-Carlo availabilities; the seed moves the
    sparse grid and, through ``fleet_round``, the Monte-Carlo draws."""
    rng = random.Random(seed)
    offset = rng.randrange(SPARSE_N - (SPARSE_POINTS - 1) * SPARSE_STRIDE + 1)
    return {
        "full_grid": list(range(ANALYZE_N + 1)),
        "sparse_grid": [offset + j * SPARSE_STRIDE for j in range(SPARSE_POINTS)],
        "mc_ks": list(MC_KS),
    }


def setup(workload: str, seed: int):
    """Ready inputs for a workload: a constructed Simulation, or the grids."""
    if workload == FLEET_ANALYSIS:
        return fleet_inputs(seed)
    return new_simulation(workload, seed)


# -- simulation workloads ------------------------------------------------------


def simulation_checks(workload: str, sim, metrics) -> list[str]:
    series = metrics.series
    problems = checks.check_run_totals(
        metrics.attempts,
        len(sim.trace),
        metrics.truncated,
        metrics.successes,
        metrics.declines_no_host,
        metrics.declines_collision,
    )
    sampling = sim.config.policy == "apsr"
    problems += checks.check_slot_queries(
        series.attempts,
        series.queries,
        budget=sim.budget if sampling else None,
        hosts=None if sampling else sim.state.n,
    )
    by_id = {r.id: r.flavor.demand for r in sim.trace}
    placed = [(p.host_id, by_id[rid]) for rid, p in sim.state.placements.items()]
    flavors = {f.id: f.demand for f in sim.dataset.flavors}
    capacities = engine.fleet_capacities(sim.dataset, sim.state.n)
    problems += checks.check_cluster(
        sim.state.census(sim.dataset.flavors).per_flavor,
        sim.state.utilization(),
        checks.recount_cluster(capacities, placed, flavors),
    )
    if workload == "nfv-oracle-t1":
        problems += checks.check_decline_ratio(
            metrics.declines, metrics.attempts, sim.config.delta_hat
        )
        problems += oracle_fleet_checks(sim, series)
    return problems


def oracle_fleet_checks(sim, series) -> list[str]:
    """Every distinct k the controller saw maps to one maximal fleet (s, d).

    d is read back as the queries each request was charged in that slot.
    """
    fleets: dict[int, tuple[int, int]] = {}
    for k_est, s, a, q in zip(series.k_estimate, series.schedulers, series.attempts, series.queries):
        if a == 0:
            continue
        k = math.floor(k_est)
        if q % a:
            return [f"k={k}: {q} queries over {a} requests is not a whole d"]
        if fleets.setdefault(k, (s, q // a)) != (s, q // a):
            return [f"k={k} ran under two fleets {fleets[k]} and {(s, q // a)}"]
    problems = []
    for k, (s, d) in sorted(fleets.items()):
        problems += checks.check_fleet(sim.state.n, sim.config.delta_hat, sim.budget, k, s, d)
    if not fleets:
        problems.append("the controller never ran a fleet")
    return problems


# -- fleet analysis --------------------------------------------------------------


def analyze(n: int, grid: list[int]) -> str:
    argv = ["analyze", "-n", str(n), "-B", str(n), "--delta-hat", str(DELTA_HAT),
            "--k-grid", ",".join(map(str, grid))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"apsr {' '.join(argv[:5])} ... exited {code}")
    return out.getvalue()


def monte_carlo(k: int, seed) -> tuple:
    s, d = ballsbins.max_paral(MC_N, DELTA_HAT, MC_BUDGET, k)
    result = ballsbins.simulate_balls_and_bins(
        ballsbins.BallsBinsParams(MC_N, k, s, d), MC_TRIALS, seed
    )
    return k, s, d, result


def monte_carlo_checks(outcome) -> list[str]:
    k, s, d, result = outcome
    return (
        checks.check_fleet(MC_N, DELTA_HAT, MC_BUDGET, k, s, d)
        + checks.check_mc_mean(MC_N, k, s, d, result.mean_happy, result.happy_stderr)
        + checks.check_uniform([int(c) for c in result.selection_counts])
    )


def fleet_round(inputs: dict, seed: int) -> list[Operation]:
    ops = []
    for n, grid in ((ANALYZE_N, inputs["full_grid"]), (SPARSE_N, inputs["sparse_grid"])):
        ops.append(Operation(
            f"analyze-{n}",
            lambda n=n, grid=grid: analyze(n, grid),
            lambda text, n=n, grid=grid: checks.check_analyze_csv(text, n, n, DELTA_HAT, grid),
        ))
    for i, k in enumerate(inputs["mc_ks"]):
        ops.append(Operation(
            f"monte-carlo-k{k}",
            lambda k=k, i=i: monte_carlo(k, (seed, i)),
            monte_carlo_checks,
        ))
    return ops


def rounds(workload: str, seed: int, inputs) -> Iterator[list[Operation]]:
    """Endless rounds of one workload, starting from the set-up ``inputs``.

    A simulation round runs a freshly constructed Simulation; the generator
    drops the previous one before building the next, so one run keeps at most
    one simulation alive.
    """
    if workload == FLEET_ANALYSIS:
        while True:
            yield fleet_round(inputs, seed)
    sim, inputs = inputs, None
    while True:
        yield [Operation(workload, sim.run, lambda metrics: simulation_checks(workload, sim, metrics))]
        sim = None
        sim = new_simulation(workload, seed)


def modelled(workload: str, outcomes: list) -> tuple[float, float]:
    """(placements per slot, queries per request) of one round.

    For the simulations these are the run's throughput and scheduler queries
    per attempted request.  For the fleet analysis they are the same figures
    for the simulated sampling game, where one play is one slot of s parallel
    requests that each query d hosts.
    """
    if workload != FLEET_ANALYSIS:
        (metrics,) = outcomes
        return metrics.throughput, metrics.scheduler_queries / metrics.attempts
    games = [o for o in outcomes if isinstance(o, tuple)]
    plays = sum(r.trials for _, _, _, r in games)
    happy = sum(r.happy_total for _, _, _, r in games)
    requests = sum(s * r.trials for _, s, _, r in games)
    queries = sum(s * d * r.trials for _, s, d, r in games)
    return happy / plays, queries / requests


# -- traced runs -----------------------------------------------------------------


def install_tracer(tracer, workload: str) -> None:
    """Wrap the public entry points each layer is entered through."""
    Simulation, ClusterState = engine.Simulation, core.ClusterState
    tracer.wrap(Simulation, "run_slot", "engine.run_slot")
    if workload == "google-wf-snapshot":
        tracer.wrap(engine, "choose", "policies.choose", hook=_sample_worst_fit)
    else:
        tracer.wrap(engine, "choose", "policies.choose")
    tracer.wrap(ClusterState, "place", "core.place", hook=_count_refused)
    tracer.wrap(ClusterState, "complete", "core.complete")
    tracer.wrap(ClusterState, "census", "core.census")
    tracer.wrap(ClusterState, "utilization", "core.utilization")
    tracer.wrap(getattr(controller, "ApsrController", None), "tick", "controller.tick")
    tracer.wrap(getattr(controller, "FlavorCounters", None), "record", "controller.record")
    # max_paral and expected_happy are looked up by name in each calling module
    for module in (controller, cli, ballsbins):
        tracer.wrap(module, "max_paral", "ballsbins.max_paral")
    for module in (ballsbins, cli):
        tracer.wrap(module, "expected_happy", "ballsbins.expected_happy")
    tracer.wrap(ballsbins, "simulate_balls_and_bins", "ballsbins.mc", hook=_count_trials)
    for name in ("load_dataset", "build_trace", "build_arrivals"):
        tracer.wrap(engine, name, f"workload.{name}")
    tracer.wrap(cli, "main", "cli.analyze")


def _count_refused(tracer, args, placed) -> None:
    if placed is False:
        tracer.counts["core.place_refused"] += 1


def _count_trials(tracer, args, result) -> None:
    tracer.counts["ballsbins.mc_trials"] += result.trials


def _sample_worst_fit(tracer, args, chosen) -> None:
    tracer.counts["choose_seen"] += 1
    if tracer.counts["choose_seen"] % GAME_SAMPLE_EVERY == 1:
        _, view, request, _ = args
        tracer.samples.append(
            (view.available.copy(), view.capacity, request.flavor.demand, chosen)
        )


def sampled_decision_checks(tracer) -> list[str]:
    problems = []
    for available, capacity, demand, chosen in tracer.samples:
        problems += checks.check_worst_fit(available.tolist(), capacity.tolist(), demand, chosen)
    tracer.samples.clear()
    return problems


def layer_metrics(summary, counts: dict, outcomes: list, run_s: float) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    calls, total = summary.calls, summary.total
    metrics = {}
    sims = [o for o in outcomes if hasattr(o, "slots")]
    metrics["engine.run_slot_s"] = total["engine.run_slot"]
    metrics["engine.self_s"] = summary.self_time["engine.run_slot"]
    metrics["engine.slots"] = sum(m.slots for m in sims)
    metrics["engine.requests"] = sum(m.attempts for m in sims)
    metrics["engine.declines_no_host"] = sum(m.declines_no_host for m in sims)
    metrics["engine.declines_collision"] = sum(m.declines_collision for m in sims)
    metrics["policies.choose_s"] = total["policies.choose"]
    metrics["policies.choose_calls"] = calls["policies.choose"]
    metrics["policies.choose_us_per_call"] = _ratio(1e6 * total["policies.choose"], calls["policies.choose"])
    for layer, name in (("core", "place"), ("core", "complete"), ("core", "census")):
        metrics[f"{layer}.{name}_s"] = total[f"{layer}.{name}"]
        metrics[f"{layer}.{name}_calls"] = calls[f"{layer}.{name}"]
    metrics["core.place_refused"] = counts.get("core.place_refused", 0)
    metrics["core.utilization_s"] = total["core.utilization"]
    metrics["controller.tick_s"] = total["controller.tick"]
    metrics["controller.ticks"] = calls["controller.tick"]
    metrics["controller.record_s"] = total["controller.record"]
    metrics["controller.record_calls"] = calls["controller.record"]
    sized = summary.parents_of["ballsbins.max_paral"]
    ticks = summary.spans_of("controller.tick")
    metrics["controller.fleet_cache_hit_ratio"] = _ratio(sum(t not in sized for t in ticks), len(ticks))
    for name in ("max_paral", "expected_happy"):
        metrics[f"ballsbins.{name}_s"] = total[f"ballsbins.{name}"]
        metrics[f"ballsbins.{name}_calls"] = calls[f"ballsbins.{name}"]
    metrics["ballsbins.mc_s"] = total["ballsbins.mc"]
    metrics["ballsbins.mc_trials_per_s"] = _ratio(counts.get("ballsbins.mc_trials", 0), total["ballsbins.mc"])
    metrics["cli.analyze_s"] = total["cli.analyze"]
    metrics["traced.run_s"] = run_s
    return metrics


def builder_metrics(summary) -> dict[str, float]:
    """Time in the workload builders while the inputs were set up."""
    return {f"workload.{name}_s": summary.total[f"workload.{name}"]
            for name in ("load_dataset", "build_trace", "build_arrivals")}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
