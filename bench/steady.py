"""Steadiness check: run each workload over several seeds and report spreads.

    python3 bench/steady.py                         # every workload, seeds 0-9
    python3 bench/steady.py --workloads nfv-mmpp-churn --seeds 0-4
    python3 bench/steady.py --trace --out .bench_out/steady.json

Each run is ``bench/run.py`` in a fresh process, one at a time.  For every
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (q3 - q1) /
median and the metric's bound from ``BENCHMARK.json``.  With ``--trace`` each
seed is also run traced, and the per-layer medians and the tracing overhead
(traced run_s minus untraced run_s) are printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(p) for p in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(p) for p in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: incorrect output\n{done.stderr}", file=sys.stderr)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9", help="'0-9' or '3,5,8'")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also run each seed traced")
    parser.add_argument("--out", help="write every run's result line to this JSON file")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(spec, workload, seed, args.seconds, 0) for seed in seeds]
        traced = [run_once(spec, workload, seed, args.seconds, 1) for seed in seeds] if args.trace else []
        record[workload] = {"seeds": seeds, "untraced": runs, "traced": traced}
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, attempted {[r['attempted'] for r in runs]}, "
              f"failed share {sorted(shares)}")
        print(f"  {'metric':<22}{'q1':>12}{'median':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median
            flag = "" if name == "setup_s" or spread <= bound / 3 else "  over bound/3"
            steady &= name == "setup_s" or spread <= bound
            print(f"  {name:<22}{q1:>12.6g}{median:>12.6g}{q3:>12.6g}{spread:>9.4f}{bound:>8}{flag}")
        if traced:
            names = traced[0]["metrics"]
            print(f"  per-layer medians over {len(traced)} traced runs:")
            for name in names:
                median = statistics.median(r["metrics"][name]["value"] for r in traced)
                print(f"    {name:<36}{median:>14.6g} {names[name]['unit']}")
            plain = statistics.median(r["metrics"]["run_s"]["value"] for r in runs)
            overhead = statistics.median(r["metrics"]["traced.run_s"]["value"] for r in traced) - plain
            print(f"  tracing overhead: {overhead:+.4f} s on run_s {plain:.4f} s "
                  f"({100 * overhead / plain:+.1f}%)")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
