"""Check that two source trees of ``tbd`` write the same bytes.

Runs one fixed command set against each tree, with ``PYTHONPATH`` set to the
tree's ``src``, and compares every file the commands write, byte for byte.
Only the cells' ``config_hash`` is masked: it hashes the package sources, so
it differs whenever the code does. Exits 1 on any difference.

The command set:

- ``tbd simulate`` of the four library scenarios at n=200, and of
  ``no_effect`` at n=2000 (``science.json``, ``observed.json``,
  ``truths.csv``);
- ``tbd fit`` of each simulated trial, then ``tbd estimate --draws 400`` and
  ``--draws 4000`` on each fit;
- ``tbd study`` plus ``tbd report`` over three configs: the four scenarios
  (n=200, 2 replicates, seed 5); ``no_effect`` and ``mixed`` (n=2000, seed
  601); and an inline ``mixed`` variant with treated Weibull scale 4 at
  n=30, whose month-12 slices fail.

Usage, with ``DIR`` a checkout or a ``git archive`` of each side::

    python scripts/byte_identity.py --parent DIR --change DIR [--work DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = ("no_effect_no_censoring", "no_effect", "beneficial", "mixed")
SIMULATIONS = [(name, name, 200) for name in SCENARIOS] + [("no_effect_n2000", "no_effect", 2000)]
LOW_SCALE = {  # `mixed` with treated scale 4: the treated arm dies out before month 12
    "name": "mixed_low_scale",
    "a0_0": -2.0, "a1_0": -1.0, "a0_x": 1.0, "a1_x": 1.0, "a0_u": 0.0, "a1_u": 0.0,
    "th0_0": 15.0, "th1_0": 4.0, "th0_x": 1.0, "th1_x": 1.0, "th0_u": 0.0, "th1_u": 0.0,
    "sigma": 2.4, "rho": 3.5, "follow_up": 15.0, "visit_times": [3, 12], "n": 30,
}
STUDIES = {
    "four_n200": {"scenarios": list(SCENARIOS), "n": 200, "replicates": 2, "master_seed": 5},
    "pair_n2000": {"scenarios": ["no_effect", "mixed"], "n": 2000, "replicates": 1,
                   "master_seed": 601},
    "failed_slices": {"scenarios": [LOW_SCALE], "replicates": 2, "master_seed": 7},
}
CONFIG_HASH = re.compile(rb'"config_hash": "[0-9a-f]+"')


def run_commands(tree: Path, out: Path) -> None:
    """Run the command set with ``tree``'s sources, writing under ``out``."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}

    def tbd(*args: str) -> None:
        cmd = [sys.executable, "-m", "tbd.cli", *args]
        done = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True)
        if done.returncode != 0 and args[0] != "study":  # a study with failed cells exits 1
            raise SystemExit(f"{tree}: {' '.join(args)} exited {done.returncode}:\n{done.stderr}")

    (out / "fits").mkdir(parents=True)
    for label, scenario, n in SIMULATIONS:
        tbd("simulate", "--scenario", scenario, "--seed", "1", "--n", str(n), "--out", f"sim/{label}")
        tbd("fit", "--data", f"sim/{label}/observed.json", "--out", f"fits/{label}.json",
            "--seed", "1")
        for draws in ("400", "4000"):
            tbd("estimate", "--data", f"sim/{label}/observed.json", "--fits", f"fits/{label}.json",
                "--draws", draws, "--out", f"estimates/{label}_{draws}")
    for label, doc in STUDIES.items():
        config = out / f"{label}.json"
        config.write_text(json.dumps(doc))
        tbd("study", "--config", config.name, "--out", f"studies/{label}", "--workers", "1")
        tbd("report", "--results", f"studies/{label}", "--out", f"reports/{label}")


def contents(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by relative path, cells' config hashes masked."""
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.parent.name == "cells":
            data = CONFIG_HASH.sub(b'"config_hash": "-"', data)
        files[path.relative_to(root).as_posix()] = data
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree of the parent")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for both outputs (default: a temporary one, removed)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        sides = {}
        for side in ("parent", "change"):
            run_commands(getattr(args, side), work / side)
            sides[side] = contents(work / side)
    parent, change = sides["parent"], sides["change"]
    differ = sorted(k for k in parent.keys() & change.keys() if parent[k] != change[k])
    only = sorted(parent.keys() ^ change.keys())
    for name in differ:
        print(f"differs: {name}")
    for name in only:
        print(f"only in {'parent' if name in parent else 'change'}: {name}")
    same = len(parent.keys() & change.keys()) - len(differ)
    print(f"{same} identical, {len(differ)} different, {len(only)} on one side only")
    return 1 if differ or only else 0


if __name__ == "__main__":
    sys.exit(main())
