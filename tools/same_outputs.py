#!/usr/bin/env python3
"""Check that two source trees write byte-identical `apsr` outputs.

    python tools/same_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the `apsr` package (a checkout's
`src/`).  Each tree runs every case below in its own Python subprocess and
keeps the command's stdout next to the files it writes:

- `apsr simulate --seeds 0,1,2` for the presets nfv, google, amazon and
  nfv-mmpp; nfv, nfv-mmpp (departures under the census), amazon (two host
  shapes, 15 flavors) and google (5,989 hosts) with the oracle estimator at
  T=1; nfv-mmpp with the avg estimator; nfv-mmpp cut at max_slots = 300,
  before its trace has arrived; nfv with budget 40%, T=3 and alpha=0.3; nfv
  with a fixed fleet of s=10 under each of the seven snapshot policies; amazon
  (two host shapes) with s=10 under distfromdiag; google with s=10 under wf,
  ff, ffr and adaptive, which read the first fitting rows of the view; and
  google with s=10 under random and wfr, which call `integers` on each
  slot's generator over every fitting host (random) or the (load, id)
  candidates (wfr) of 5,989 hosts;
- `apsr simulate --seeds 4294967301,18446744073709551623` (2^32 + 5 and
  2^64 + 7, seeds of two and three 32-bit words) for nfv and for nfv with a
  fixed fleet of s=10 under random;
- `apsr analyze -n 837 -B 837 --k-grid 0:837`;
- `apsr size-hosts nfv --runs 2` and `apsr size-hosts amazon --runs 2`, with
  their `--output` CSV;
- `game`: `simulate_balls_and_bins`' totals and `selection_counts` at the
  `fleet-analysis` benchmark points (n = 837, B = 250, k = 80, 200 and 350,
  100k trials, seeds 0-2), at the edges k = 0, k = n, d = 1 and one trial
  past a block of about 2^18 draws, with wide rows (s = 1, d = 837), either
  side of the int16 draw cut (n = 32,767, 32,768 and 32,769, each with k = n
  and k = n - 1, one trial past a block), and with int64 draws
  (n = 2^31 + 1).

Prints "identical" when every output (each `manifest.json`, `run_<seed>.csv`,
sizing CSV and stdout) matches byte for byte and exits 0; otherwise prints
every differing file and exits 1.  Exit 2 means a tree could not run.  This is
the check for changes that mean to keep how randomness is drawn.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = "0,1,2"
BIG_SEEDS = "4294967301,18446744073709551623"  # seeds of 2 and 3 words in default_rng keys
OUT = "{out}"  # replaced by the case's output directory
CONFIGS = {
    "nfv": "nfv",
    "google": "google",
    "amazon": "amazon",
    "nfv-mmpp": "nfv-mmpp",
    "nfv-oracle-t1": "preset = nfv\nestimator = oracle\nT = 1\n",
    # departures between two censuses
    "nfv-mmpp-oracle": "preset = nfv-mmpp\nestimator = oracle\nT = 1\n",
    # two host shapes and 15 flavors under the census
    "amazon-oracle-t1": "preset = amazon\nestimator = oracle\nT = 1\n",
    # the census over 5,989 hosts
    "google-oracle-t1": "preset = google\nestimator = oracle\nT = 1\n",
    "nfv-mmpp-avg": "preset = nfv-mmpp\nestimator = avg\n",
    # cut before the trace has arrived, so the run loop alone ends the arrivals
    "nfv-mmpp-300": "preset = nfv-mmpp\nmax_slots = 300\n",
    "nfv-window": "preset = nfv\nbudget = 40%\nT = 3\nalpha = 0.3\n",
    **{
        f"nfv-{kind}-s10": f"preset = nfv\npolicy = {kind}\ns = 10\n"
        for kind in ("ff", "wf", "random", "ffr", "wfr", "adaptive", "distfromdiag")
    },
    "amazon-distfromdiag-s10": "preset = amazon\npolicy = distfromdiag\ns = 10\n",
    **{
        f"google-{kind}-s10": f"preset = google\npolicy = {kind}\ns = 10\n"
        for kind in ("wf", "ff", "ffr", "adaptive", "random", "wfr")
    },
}
COMMANDS = {
    "analyze": ["analyze", "-n", "837", "-B", "837", "--k-grid", "0:837"],
    **{
        f"size-hosts-{dataset}": ["size-hosts", dataset, "--runs", "2",
                                  "--output", f"{OUT}/sizing.csv"]
        for dataset in ("nfv", "amazon")
    },
}
# The Monte-Carlo game, which no CLI command plays.
GAME = """
from apsr.ballsbins import BallsBinsParams, max_paral, simulate_balls_and_bins

def past_block(s, d):  # trials that end one trial past a block of about 2**18 draws
    return 2**18 // (s * d) + 1

def play(n, k, s, d, trials, seed):
    r = simulate_balls_and_bins(BallsBinsParams(n, k, s, d), trials, seed)
    print(n, k, s, d, trials, seed, r.potentially_happy_total, r.happy_total,
          r.happy_sq_total, r.selection_counts.tolist())

for k in (80, 200, 350):
    s, d = max_paral(837, 0.05, 250, k)
    for seed in range(3):
        play(837, k, s, d, 100_000, seed)
play(837, 0, 5, 50, 1000, 0)
play(837, 837, 12, 20, 1000, 0)
play(837, 200, 30, 1, 1000, 0)
play(837, 200, 9, 27, past_block(9, 27), 0)
play(837, 200, 1, 837, 3000, 0)
for n in (2**15 - 1, 2**15, 2**15 + 1):  # either side of the int16 draw cut
    for k in (n, n - 1):
        play(n, k, 2, 3, past_block(2, 3), 0)
play(2**31 + 1, 1000, 4, 50, 1000, 0)
"""


def run(src: Path, argv: list[str], out: Path) -> None:
    """Run `python argv` from tree src; its files and stdout land in out."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))  # ahead of any installed apsr
    argv = [a.replace(OUT, str(out)) for a in argv]
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"error: {src}: python {' '.join(argv)} exited {done.returncode}\n{done.stderr}",
              file=sys.stderr)
        sys.exit(2)
    (out / "stdout").write_text(done.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/same_outputs.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    for src in trees:
        if not (src / "apsr" / "__init__.py").is_file():
            print(f"error: no apsr package under {src}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cases = {}
        for name, config in CONFIGS.items():
            if "\n" in config:
                path = tmp / f"{name}.cfg"
                path.write_text(config)
                config = str(path)
            cases[name] = ["simulate", config, "--seeds", SEEDS, "--out", OUT]
            if name in ("nfv", "nfv-random-s10"):
                cases[f"{name}-big-seeds"] = ["simulate", config, "--seeds", BIG_SEEDS, "--out", OUT]
        cases.update(COMMANDS)
        cases = {name: ["-m", "apsr.cli", *args] for name, args in cases.items()}
        cases["game"] = ["-c", GAME]
        differing = 0
        for name, case in cases.items():
            outs = [tmp / side / name for side in ("old", "new")]
            for src, out in zip(trees, outs):
                run(src, case, out)
            files = sorted({p.name for out in outs for p in out.iterdir()})
            same = 0
            for file in files:
                old, new = (out / file for out in outs)
                if old.is_file() and new.is_file() and old.read_bytes() == new.read_bytes():
                    same += 1
                else:
                    print(f"differs: {name}/{file}")
            print(f"{name}: {same} of {len(files)} files identical", file=sys.stderr)
            differing += len(files) - same
    if differing:
        return 1
    print("identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
