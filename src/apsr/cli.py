"""Command-line front end: analytic tables, simulations, seed sweeps, host sizing.

Subcommands
    analyze     feasibility table over an availability grid (CSV)
    simulate    run a config across seeds; writes a JSON manifest plus one
                per-slot CSV time series per run
    size-hosts  approximate the smallest fleet that fits a whole trace
    datasets    list the embedded request-mix tables

Config files are flat ``key = value`` text ('#' starts a comment).  Recognized
keys: preset and every ExperimentConfig field (dataset, replicas, hosts, policy,
s, delta_hat, budget, T, alpha, estimator, lambda_a, arrival, lambda_d, seed,
max_slots), with s and T short for schedulers and period; each value is read as
its field's type.

Exit codes: 0 success, 2 usage or config error, 3 runtime error.  Results go
to files or stdout; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .ballsbins import BallsBinsParams, expected_happy, max_paral
from .core import ConfigError, ModelError
from .engine import PRESETS, ExperimentConfig, make_config, run_experiment
from .workload import DATASET_NAMES, DEFAULT_FLEETS, fleet_size, load_dataset, size_hosts

ANALYZE_COLUMNS = ("n", "delta_hat", "budget", "k", "s", "d",
                   "expected_happy", "expected_happy_per_scheduler")
#: the SlotSeries lists each run_<seed>.csv holds, in column order
TIMESERIES_COLUMNS = ("slot", "utilization", "schedulers", "k_estimate", "decline_ratio")
SIZING_COLUMNS = ("run", "policy", "hosts")


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _format(value) -> str:
    if isinstance(value, float):
        return "" if np.isnan(value) else repr(value)
    return str(value)


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_format(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _parse_grid(text: str, n: int) -> list[int]:
    """Either a comma list ('0,10,20') or an inclusive range 'start:stop[:step]'."""
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) == 2:
                start, stop, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                start, stop, step = parts
            else:
                raise ValueError(text)
            if step < 1 or stop < start:
                raise ValueError(text)
            grid = list(range(start, stop + 1, step))
        else:
            grid = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise ConfigError(f"malformed k grid {text!r}") from None
    if not grid or any(k < 0 or k > n for k in grid):
        raise ConfigError(f"k grid values must lie in [0, {n}]")
    return grid


# -- config files -----------------------------------------------------------

_KEY_ALIASES = {"s": "schedulers", "T": "period"}
#: each field's value types, tried in order: int | str reads "60%" as a string
_KEY_TYPES = {name: [t for t in typing.get_args(hint) or (hint,) if t is not type(None)]
              for name, hint in typing.get_type_hints(ExperimentConfig).items()}


def _parse_value(key: str, value: str):
    """``value`` as the first of ``key``'s field types it parses as; an unknown key
    stays a string, for ``make_config`` to reject."""
    for kind in _KEY_TYPES.get(key, [str]):
        try:
            return kind(value)
        except ValueError:
            pass
    raise ValueError(value)


def _parse_config_file(path: Path) -> tuple[str | None, dict]:
    preset = None
    overrides: dict = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = _KEY_ALIASES.get(key, key)
        if key == "preset":
            preset = value
            continue
        try:
            overrides[key] = _parse_value(key, value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return preset, overrides


def load_config(source: str) -> ExperimentConfig:
    """Build a config from a preset name or a config file path."""
    path = Path(source)
    if path.is_file():
        preset, overrides = _parse_config_file(path)
        return make_config(preset, **overrides)
    if source in PRESETS:
        return make_config(source)
    raise ConfigError(f"{source!r} is neither a config file nor one of {tuple(PRESETS)}")


# -- subcommands ------------------------------------------------------------

def cmd_analyze(args) -> int:
    n = args.hosts
    if n < 1 or args.budget < 1:
        raise ConfigError("hosts and budget must be >= 1")
    if not 0.0 <= args.delta_hat <= 1.0:
        raise ConfigError(f"delta_hat must be in [0, 1], got {args.delta_hat}")
    grid = _parse_grid(args.k_grid, n)
    rows = []
    for k in grid:
        s, d = max_paral(n, args.delta_hat, args.budget, k)
        eh = expected_happy(BallsBinsParams(n, k, s, d))
        rows.append((n, args.delta_hat, args.budget, k, s, d, eh, eh / s))
    _write_csv(args.output, ANALYZE_COLUMNS, rows)
    return 0


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [config.seed]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    for seed in seeds:  # a repeated seed would add no information but shrink the stderr
        if seeds.count(seed) > 1:
            raise ConfigError(f"--seeds repeats seed {seed}")
        replace(config, seed=seed)  # checks the seed's range before any output
    load_dataset(config.dataset)  # a bad dataset or fleet exits before any output
    fleet_size(config.dataset, config.hosts)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest = {
        "artifact_version": __version__,
        "config": asdict(config),
        "seeds": seeds,
        "timeseries_columns": list(TIMESERIES_COLUMNS),
        "runs": [],
    }
    for seed in seeds:
        _progress(f"running seed {seed} ...")
        metrics = run_experiment(replace(config, seed=seed))
        rows = zip(*(getattr(metrics.series, column) for column in TIMESERIES_COLUMNS))
        _write_csv(out_dir / f"run_{seed}.csv", TIMESERIES_COLUMNS, rows)
        manifest["runs"].append({"seed": seed, "metrics": metrics.to_dict()})
        manifest["aggregate"] = _aggregate(manifest["runs"])
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        _progress(f"seed {seed}: decline_ratio={metrics.decline_ratio:.4f} "
                  f"throughput={metrics.throughput:.2f}")
    _progress(f"wrote {out_dir / 'manifest.json'}")
    return 0


def _aggregate(runs: list[dict]) -> dict:
    aggregate = {}
    for key in ("decline_ratio", "throughput", "mean_active", "scheduler_queries"):
        values = np.array([run["metrics"][key] for run in runs], dtype=float)
        stderr = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
        aggregate[key] = {"mean": float(values.mean()), "stderr": stderr}
    return aggregate


def cmd_size_hosts(args) -> int:
    spec = load_dataset(args.dataset)
    policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    result = size_hosts(spec, args.replicas, policies, args.runs, args.seed)
    if args.output:
        _write_csv(args.output, SIZING_COLUMNS,
                   [(r.run, r.policy, r.hosts) for r in result.runs])
        _progress(f"wrote {args.output}")
    print(result.hosts)
    return 0


def cmd_datasets(args) -> int:
    rows = []
    for name in DATASET_NAMES:
        spec = load_dataset(name)
        unit = 10**spec.decimals
        shapes = " ".join(
            "x".join(f"{v / unit:g}" for v in cap) + f":{w}" for cap, w in spec.host_shapes
        )
        rows.append((name, len(spec.flavors), spec.requests_per_replica,
                     "/".join(spec.resources), shapes, DEFAULT_FLEETS[name]))
    _write_csv(None, ("name", "flavors", "requests_per_replica", "resources",
                      "host_shapes", "default_fleet"), rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apsr",
        description="Parallel VM placement: feasibility analysis and trace-driven simulation.",
    )
    parser.add_argument("--version", action="version", version=f"apsr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="feasibility table over an availability grid")
    p.add_argument("--hosts", "-n", type=int, required=True, help="number of hosts (bins)")
    p.add_argument("--delta-hat", type=float, default=0.05, help="decline-ratio target")
    p.add_argument("--budget", "-B", type=int, required=True, help="per-slot query budget")
    p.add_argument("--k-grid", required=True,
                   help="available-host grid: '0,10,20' or 'start:stop[:step]' (inclusive)")
    p.add_argument("--output", "-o", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run a configuration across seeds")
    p.add_argument("config", help="config file path or preset name "
                                  f"(presets: {', '.join(PRESETS)})")
    p.add_argument("--seeds", default=None, help="comma list, e.g. '0,1,2' "
                                                 "(default: the config's seed)")
    p.add_argument("--out", "-o", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("size-hosts", help="smallest fleet that fits a whole trace")
    p.add_argument("dataset", help="dataset name or table file")
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--runs", type=int, default=10, help="shuffled trace orders to try")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policies", default="ff,wf,random", help="comma list of policies")
    p.add_argument("--output", "-o", default=None, help="per-run detail CSV")
    p.set_defaults(func=cmd_size_hosts)

    p = sub.add_parser("datasets", help="list the embedded request-mix tables")
    p.set_defaults(func=cmd_datasets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ModelError, OSError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
