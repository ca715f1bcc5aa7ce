"""Benchmark for apsr: one workload per process, or all four in turn.

    python3 bench/run.py --workload nfv-oracle-t1 --seed 0 --seconds 10 --trace 0
    python3 bench/run.py                 # every workload once, seed 0

A run sets its inputs up, then repeats whole rounds of the workload's
operations for as many rounds as fit in ``--seconds`` (at least one), checks
every output, prints each
metric with its unit and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps apsr's entry points and reports the
per-layer metrics instead, writing its spans to ``.bench_out/``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("nfv-oracle-t1", "nfv-mmpp-churn", "google-wf-snapshot", "fleet-analysis")
SETUP_REPEATS = 5  # fresh interpreters per run; setup_s is their median
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "placements_per_slot": "placements/slot",
    "queries_per_request": "queries/request",
}


def layer_unit(name: str) -> str:
    if name.endswith("_us_per_call"):
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def import_apsr() -> None:
    """Import apsr from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "apsr" / "__init__.py").is_file():
        sys.exit(f"error: no apsr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import apsr

    if SRC not in Path(apsr.__file__).resolve().parents:
        sys.exit(f"error: imported apsr from {apsr.__file__}, not from {SRC}")


def setup_child(workload: str, seed: int) -> None:
    """Fresh-interpreter set-up: import apsr, build the inputs, report when ready."""
    import_apsr()
    import workloads

    workloads.setup(workload, seed)
    print(time.monotonic())


def time_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter to its inputs being ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
            "--workload", workload, "--seed", str(seed)]
    launched = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"error: set-up of {workload} failed:\n{done.stderr}")
    return float(done.stdout.split()[-1]) - launched


def play_round(workload: str, rounds, tracer, expected) -> tuple:
    """Run and check the next round.

    Returns its host time, the peak resident memory so far (read before the
    checks, which are the benchmark's own work), one failed flag per
    operation, its modelled figures and, when traced, its layer figures.
    Everything the round built goes with this frame, so two rounds'
    simulations are never alive together.
    """
    from spans import Summary
    import workloads

    gc.collect()
    if tracer:
        tracer.enabled = False
    ops = next(rounds)
    if tracer:
        lo, counts = len(tracer.names), dict(tracer.counts)
        tracer.enabled = True
    outcomes, elapsed = [], 0.0
    for op in ops:
        t0 = time.perf_counter()
        try:
            outcomes.append(op.work())
        except Exception:
            outcomes.append(None)
            print(f"{op.name}: raised\n{traceback.format_exc()}", file=sys.stderr)
        elapsed += time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.enabled = False

    problems = [[] if outcome is None else op.verify(outcome) for op, outcome in zip(ops, outcomes)]
    if tracer and workload == "google-wf-snapshot":
        problems[0] += workloads.sampled_decision_checks(tracer)
    this = layer = None
    if None not in outcomes:
        this = workloads.modelled(workload, outcomes)
        if expected is not None and this != expected:
            problems[0].append(f"modelled metrics {this} differ from the first round's {expected}")
        if tracer:
            delta = {k: v - counts.get(k, 0) for k, v in tracer.counts.items()}
            summary = Summary(tracer, lo, len(tracer.names))
            layer = workloads.layer_metrics(summary, delta, outcomes, elapsed)
    for op, found in zip(ops, problems):
        for problem in found:
            print(f"{op.name}: {problem}", file=sys.stderr)
    return elapsed, peak_mb, [o is None or bool(p) for o, p in zip(outcomes, problems)], this, layer


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if not traced:
        setup_s = statistics.median(time_setup(workload, seed) for _ in range(SETUP_REPEATS))

    import_apsr()
    import workloads
    from spans import Summary, Tracer

    tracer = None
    if traced:
        tracer = Tracer()
        workloads.install_tracer(tracer, workload)
    rounds = workloads.rounds(workload, seed, workloads.setup(workload, seed))
    builders = workloads.builder_metrics(Summary(tracer, 0, len(tracer.names))) if traced else {}

    attempted = failed = 0
    round_s, layers, modelled, peak_mb = [], [], None, None
    started = time.perf_counter()
    longest = 0.0
    while True:
        round_started = time.perf_counter()
        elapsed, peak, bad, this, layer = play_round(workload, rounds, tracer, modelled)
        peak_mb = peak_mb or peak  # set-up plus the first round, whatever the round count
        attempted, failed = attempted + len(bad), failed + sum(bad)
        round_s.append(elapsed)
        modelled = modelled or this
        if layer:
            layers.append(layer)
        # stop before a round that would end after the measured time
        now = time.perf_counter()
        longest = max(longest, now - round_started)
        if now - started + longest > seconds:
            break

    if traced:
        tracer.unwrap_all()
        OUT.mkdir(exist_ok=True)
        tracer.write_csv(OUT / f"spans-{workload}-seed{seed}.csv")
        values = dict(builders)
        for name in layers[0] if layers else ():
            values[name] = statistics.median(r[name] for r in layers)
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in sorted(values.items())}
    else:
        values = {
            "setup_s": setup_s,
            "run_s": statistics.median(round_s),
            "peak_rss_mb": peak_mb,
        }
        if modelled:
            values["placements_per_slot"], values["queries_per_request"] = modelled
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{workload}: FAILED", flush=True)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted = {result['attempted']} failed = {result['failed']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
