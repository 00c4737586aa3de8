"""Check that two source trees of ``tbd`` write the same bytes, the change also on one BLAS thread.

Runs one fixed command set against each tree, with ``PYTHONPATH`` set to the
tree's ``src``, and compares every file the commands write, byte for byte.
Only the cells' ``config_hash`` is masked: it hashes the package sources, so
it differs whenever the code does. Exits 1 on any difference, and on any
``*.tmp`` file left in either output tree: every file is written through a
temporary file renamed into place, so one left behind is a write that never
finished.

The command set:

- ``tbd simulate`` of the four library scenarios at n=200, and of
  ``no_effect`` at n=2000 and at n=2003 (``science.json``,
  ``observed.json``, ``truths.csv``); the arms of 1001 and 1002 patients at
  n=2003 are wider than 192 and not multiples of 8, the sizes at which
  OpenBLAS takes its edge kernel for the last columns of a product; and of
  an inline scenario file, ``beneficial`` with the unmeasured covariate u
  loading both arms' slopes (0.5) and Weibull scales (2) at n=300, the one
  simulator path that draws u; and of ``no_effect`` visited every month,
  months 1 to 15, at n=200, whose hazard grid of 15 segments is the one
  grid of the set with more than 7, where the order in which the restricted
  mean adds its segment terms differs from ``np.sum``'s;
- ``tbd fit`` of each simulated trial, then ``tbd estimate --draws 400`` and
  ``--draws 4000`` on each fit. ``tbd estimate`` writes 6 significant
  digits, so a move in the draws' last bits would not show in its CSV
  files: each tree therefore also evaluates ``study.estimate_visits`` at
  k=400 on each fit and writes the draws of every estimand at every visit
  as JSON numbers through ``science.dump_json`` (``draws/<trial>.json``),
  at full precision. That step adds about 4 s a run (three runs: each
  tree, and the change on one BLAS thread);
- each tree also decodes each ``fits/<trial>.json`` and writes, for every
  posterior array, its shape and the SHA-256 of its little-endian float64
  bytes (``arrays/<trial>.json``). These files, and the draws files, do not
  depend on how the tree encodes an array, so a change of the posterior
  file's layout reads as ``fits/*.json`` "different" with every
  ``arrays/*.json`` and ``draws/*.json`` identical: the same draws, written
  another way;
- ``tbd study`` plus ``tbd report`` over three configs: the four scenarios
  (n=200, 2 replicates, seed 5); ``no_effect`` and ``mixed`` (n=2000, seed
  601); and an inline ``mixed`` variant with treated Weibull scale 4 at
  n=30, whose month-12 slices fail.

Each tree also reads every ``observed.json`` it wrote back through
``science.observed_from_json`` and writes it again with
``science.observed_to_json`` and ``science.dump_json``: the bytes must be
the ones ``tbd simulate`` wrote, since ``tbd fit`` and ``tbd estimate`` only
read the file. A file that does not round-trip exits 1 as well.

The change's command set then runs once more under
``OPENBLAS_NUM_THREADS=1``, and every file that differs from its default run
is listed as depending on the BLAS thread count and exits 1: the same inputs
and seeds must write the same bytes on any number of cores. (On a one-core
machine both runs use one thread, and this check passes trivially.)

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
U_LOADING = {  # `beneficial` with u in both arms' slopes and scales
    "a0_0": -2.0, "a1_0": -1.0, "a0_x": 1.0, "a1_x": 1.0, "a0_u": 0.5, "a1_u": 0.5,
    "th0_0": 10.0, "th1_0": 15.0, "th0_x": 1.0, "th1_x": 1.0, "th0_u": 2.0, "th1_u": 2.0,
    "sigma": 2.4, "rho": 3.5, "follow_up": 15.0, "visit_times": [3, 6, 9, 12, 15], "n": 300,
}
MONTHLY = {  # `no_effect` visited every month: a hazard grid of 15 segments
    "a0_0": -2.0, "a1_0": -2.0, "a0_x": 1.0, "a1_x": 1.0, "a0_u": 0.0, "a1_u": 0.0,
    "th0_0": 15.0, "th1_0": 15.0, "th0_x": 1.0, "th1_x": 1.0, "th0_u": 0.0, "th1_u": 0.0,
    "sigma": 2.4, "rho": 3.5, "follow_up": 15.0, "visit_times": list(range(1, 16)), "n": 200,
}
SIMULATIONS = [(name, name, 200) for name in SCENARIOS] + [
    (f"no_effect_n{n}", "no_effect", n) for n in (2000, 2003)] + [
    ("beneficial_u", "beneficial_u.json", 300),
    ("no_effect_monthly", "no_effect_monthly.json", 200)]
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
# run with a tree's sources: every sim/*/observed.json under argv[1] read,
# written again, and the names of those whose bytes changed printed as JSON
ROUND_TRIP = """
import json, sys, tempfile
from pathlib import Path
from tbd import science
changed, files = [], sorted(Path(sys.argv[1]).glob("sim/*/observed.json"))
with tempfile.TemporaryDirectory() as tmp:
    for path in files:
        again = Path(tmp) / "observed.json"
        science.dump_json(science.observed_to_json(science.observed_from_json(
            science.load_json(path))), again)
        if again.read_bytes() != path.read_bytes():
            changed.append(path.relative_to(sys.argv[1]).as_posix())
print(json.dumps({"files": len(files), "changed": changed}))
"""


# run with a tree's sources: each fits/<trial>.json under argv[1] read with
# its trial's observed.json, and its array digests and estimand draws at
# k=400 written to arrays/<trial>.json and draws/<trial>.json
DRAWS = """
import dataclasses, hashlib, sys
from pathlib import Path
import numpy as np
from tbd import cli, codec, longitudinal, science, study, survival
out = Path(sys.argv[1])
for path in sorted(out.glob("fits/*.json")):
    data = science.observed_from_json(science.load_json(out / "sim" / path.stem / "observed.json"))
    fits = codec.decode(cli.PosteriorFile, science.load_json(path))
    spost = survival.SurvivalPosterior.from_json(fits.survival)
    lposts = {t: longitudinal.LongitudinalPosterior.from_json(doc)
              for t, doc in fits.longitudinal.items()}
    digests = {}
    posts = [("survival", spost), *((f"longitudinal.{t:g}", p) for t, p in lposts.items())]
    for where, post in posts:
        for f in dataclasses.fields(post):
            if isinstance(a := getattr(post, f.name), np.ndarray):
                raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
                digests[f"{where}.{f.name}"] = f"{a.shape} " + hashlib.sha256(raw).hexdigest()
    science.dump_json(digests, out / "arrays" / f"{path.stem}.json", indent=1)
    visits = study.estimate_visits(spost, lposts, data, 400)
    science.dump_json(codec.encode({v.time: {k: d.tolist() for k, d in v.draws.items()}
                                    for v in visits}), out / "draws" / f"{path.stem}.json")
"""


def run_commands(tree: Path, out: Path, env_extra: dict | None = None) -> None:
    """Run the command set with ``tree``'s sources, writing under ``out``,
    with ``env_extra`` added to the environment."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"), **(env_extra or {})}

    def tbd(*args: str) -> None:
        cmd = [sys.executable, "-m", "tbd.cli", *args]
        done = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True)
        if done.returncode != 0 and args[0] != "study":  # a study with failed cells exits 1
            raise SystemExit(f"{tree}: {' '.join(args)} exited {done.returncode}:\n{done.stderr}")

    (out / "fits").mkdir(parents=True)
    for name, doc in (("beneficial_u", U_LOADING), ("no_effect_monthly", MONTHLY)):
        (out / f"{name}.json").write_text(json.dumps({name: doc}))
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
    done = subprocess.run([sys.executable, "-c", DRAWS, str(out)], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: estimand draws exited {done.returncode}:\n{done.stderr}")


def round_trip(tree: Path, out: Path) -> dict:
    """``ROUND_TRIP`` over ``out`` with ``tree``'s sources: the number of
    ``observed.json`` files read back and the names of those that changed."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    done = subprocess.run([sys.executable, "-c", ROUND_TRIP, str(out)], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: observed.json round trip exited {done.returncode}:\n"
                         f"{done.stderr}")
    return json.loads(done.stdout)


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
        sides, trips = {}, {}
        for side in ("parent", "change"):
            run_commands(getattr(args, side), work / side)
            trips[side] = round_trip(getattr(args, side), work / side)
            sides[side] = contents(work / side)
        run_commands(args.change, work / "change_one_thread", {"OPENBLAS_NUM_THREADS": "1"})
        one_thread = contents(work / "change_one_thread")
    parent, change = sides["parent"], sides["change"]
    threads = sorted(k for k in change.keys() | one_thread.keys()
                     if change.get(k) != one_thread.get(k))
    differ = sorted(k for k in parent.keys() & change.keys() if parent[k] != change[k])
    only = sorted(parent.keys() ^ change.keys())
    left = [f"{side}/{k}" for side, files in sides.items() for k in files if k.endswith(".tmp")]
    for name in left:
        print(f"temporary file left: {name}")
    for name in differ:
        print(f"differs: {name}")
    for name in only:
        print(f"only in {'parent' if name in parent else 'change'}: {name}")
    same = len(parent.keys() & change.keys()) - len(differ)
    print(f"{same} identical, {len(differ)} different, {len(only)} on one side only")
    for side, trip in trips.items():
        for name in trip["changed"]:
            print(f"{side}: observed.json does not round-trip: {name}")
        print(f"{side}: {trip['files'] - len(trip['changed'])} of {trip['files']} observed.json "
              f"files round-trip to identical bytes")
    for name in threads:
        print(f"change: depends on the BLAS thread count: {name}")
    print(f"change: {len(threads)} files depend on the BLAS thread count")
    changed = any(trip["changed"] for trip in trips.values())
    return 1 if differ or only or left or changed or threads else 0


if __name__ == "__main__":
    sys.exit(main())
