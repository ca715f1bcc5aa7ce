#!/usr/bin/env python3
"""Check that two source trees write byte-identical `apsr simulate` outputs.

    python tools/same_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the `apsr` package (a checkout's
`src/`).  Each tree runs `apsr simulate --seeds 0,1,2` in its own Python
subprocess for: the presets nfv, google, amazon and nfv-mmpp; nfv with the
oracle estimator at T=1; nfv with a fixed fleet of s=10 under each of the
seven snapshot policies; amazon (two host shapes) with s=10 under
distfromdiag; and google (5,989 hosts) with s=10 under wf.  Prints
"identical" when every `manifest.json` and `run_<seed>.csv` matches byte for
byte and exits 0; otherwise prints the first differing file and exits 1.  Exit 2 means a tree could not run.  This is the
check for changes that mean to keep how randomness is drawn.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = "0,1,2"
CONFIGS = {
    "nfv": "nfv",
    "google": "google",
    "amazon": "amazon",
    "nfv-mmpp": "nfv-mmpp",
    "nfv-oracle-t1": "preset = nfv\nestimator = oracle\nT = 1\n",
    **{
        f"nfv-{kind}-s10": f"preset = nfv\npolicy = {kind}\ns = 10\n"
        for kind in ("ff", "wf", "random", "ffr", "wfr", "adaptive", "distfromdiag")
    },
    "amazon-distfromdiag-s10": "preset = amazon\npolicy = distfromdiag\ns = 10\n",
    "google-wf-s10": "preset = google\npolicy = wf\ns = 10\n",
}


def simulate(src: Path, config: str, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))  # ahead of any installed apsr
    command = [sys.executable, "-m", "apsr.cli", "simulate", config, "--seeds", SEEDS,
               "--out", str(out)]
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"error: {src}: apsr simulate {config} exited {done.returncode}\n{done.stderr}",
              file=sys.stderr)
        sys.exit(2)


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
        for name, config in CONFIGS.items():
            if "\n" in config:
                path = tmp / f"{name}.cfg"
                path.write_text(config)
                config = str(path)
            outs = [tmp / side / name for side in ("old", "new")]
            for src, out in zip(trees, outs):
                simulate(src, config, out)
            files = sorted({p.name for out in outs for p in out.iterdir()})
            for file in files:
                old, new = (out / file for out in outs)
                if not (old.is_file() and new.is_file() and old.read_bytes() == new.read_bytes()):
                    print(f"differs: {name}/{file}")
                    return 1
            print(f"{name}: {len(files)} files identical", file=sys.stderr)
    print("identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
