"""Alternating parent/change runs of the benchmark, summarized in a BENCH_*.json.

For each seed, runs ``bench/run.py --workload W --seed S --seconds N --trace 0``
in the parent tree and in the change tree, one at a time, with N the
``run_seconds`` of the change's ``BENCHMARK.json``. The side that runs
first alternates from seed to seed: the parent at the first seed, the change
at the second, and so on. The script reads only what each run prints (its
provenance line and its last line); it changes nothing in either tree, and
the benchmark writes only its own ``.bench_out`` there.

The pseudo-workload ``study_workers`` times ``tbd study`` instead: six
``no_effect`` cells at n=2000 with ``--workers 1`` and then ``--workers 2``,
on each side, recording wall seconds, CPU seconds of the study and its worker
processes; and the seeds at which each side wrote the same cells at both
worker counts, and those at which both sides wrote the same cells.

The pseudo-workload ``estimate_n2000`` times ``estimate_visits`` in process:
each side simulates a ``no_effect`` trial of n=2000 at the seed and fits it
(``tbd simulate``, ``tbd fit``), then a fresh Python process loads the data
and the fits and evaluates every visit over 4000 paired draws, recording
the call's wall seconds and the process's peak resident memory.

The pseudo-workload ``analyst_cli`` times the analyst path as separate
processes: each side simulates the ``analyst_estimate`` trial (``no_effect``,
n=200) at the seed, then runs ``tbd fit`` and ``tbd estimate --draws 4000``
on it, recording each command's whole-process wall seconds, the bytes of
the ``fits.json`` it wrote, and the seeds at which both sides wrote the same
``estimates.csv`` and ``summary.csv``.

Each call updates one section of ``--out``: ``workloads[W]``, or
``held_out[W]`` with ``--held-out`` (seeds not used while the change was
written). A section holds every run's metrics, each side's median and
quartiles, the change/parent ratio of the medians and the pairs the change
won. Usage::

    python scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_x.json \\
        --workload study_n2000 --seeds 921 922 923 924 925 926
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_WORKLOADS = ("study_n200", "study_n2000", "analyst_estimate")
STUDY = {"scenarios": ["no_effect"], "n": 2000, "replicates": 6}
STUDY_WORKERS = (1, 2)
CONFIG_HASH = re.compile(rb'"config_hash": "[0-9a-f]+"')
ESTIMATE = {"scenario": "no_effect", "n": 2000, "draws": 4000}
ANALYST = {"scenario": "no_effect", "n": 200, "draws": 4000}
# run in a fresh process with the trial directory and the draws as arguments
ESTIMATE_IN_PROCESS = """
import json, resource, sys, time
from tbd import cli, codec, longitudinal, science, study, survival
work, draws = sys.argv[1], int(sys.argv[2])
data = science.observed_from_json(science.load_json(work + "/sim/observed.json"))
fits = codec.decode(cli.PosteriorFile, science.load_json(work + "/fits.json"))
spost = survival.SurvivalPosterior.from_json(fits.survival)
lposts = {t: longitudinal.LongitudinalPosterior.from_json(doc)
          for t, doc in fits.longitudinal.items()}
start = time.perf_counter()
study.estimate_visits(spost, lposts, data, draws)
print(json.dumps({"estimate_visits_s": time.perf_counter() - start,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its result line and provenance."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    prov = next(json.loads(line[len("provenance "):]) for line in lines
                if line.startswith("provenance "))
    return {
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "nproc": prov["nproc"], "blas_threads": prov["blas_threads"],
        "code_sha256": prov["code_sha256"],
    }


def study_run(tree: Path, seed: int, work: Path) -> dict:
    """``tbd study`` over ``STUDY`` at each worker count, from ``tree``'s sources."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    config = work / "study.json"
    config.write_text(json.dumps({**STUDY, "master_seed": seed}))
    out: dict = {"metrics": {}, "cells_sha256": {}}
    for workers in STUDY_WORKERS:
        target = work / f"w{workers}"
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "tbd.cli", "study", "--config", str(config),
                               "--out", str(target), "--workers", str(workers)],
                              env=env, capture_output=True, text=True)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if done.returncode not in (0, 1):  # 1: the study finished with failed cells
            raise SystemExit(f"{tree}: tbd study exited {done.returncode}:\n{done.stderr}")
        out["metrics"][f"wall_s_workers{workers}"] = wall
        out["metrics"][f"cpu_s_workers{workers}"] = (after.ru_utime - before.ru_utime
                                                     + after.ru_stime - before.ru_stime)
        h = hashlib.sha256()
        for cell in sorted((target / "cells").glob("*.json")):
            h.update(cell.name.encode() + b"\0" + CONFIG_HASH.sub(b"", cell.read_bytes()))
        out["cells_sha256"][f"workers{workers}"] = h.hexdigest()
        shutil.rmtree(target)
    return out


def estimate_run(tree: Path, seed: int, work: Path) -> dict:
    """``estimate_visits`` over ``ESTIMATE`` in a fresh process, from ``tree``'s sources."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    tbd = [sys.executable, "-m", "tbd.cli"]
    for cmd in (["simulate", "--scenario", ESTIMATE["scenario"], "--seed", str(seed),
                 "--n", str(ESTIMATE["n"]), "--out", str(work / "sim")],
                ["fit", "--data", str(work / "sim" / "observed.json"),
                 "--out", str(work / "fits.json"), "--seed", str(seed)]):
        subprocess.run(tbd + cmd, env=env, capture_output=True, check=True)
    done = subprocess.run([sys.executable, "-c", ESTIMATE_IN_PROCESS, str(work),
                           str(ESTIMATE["draws"])], env=env, capture_output=True, text=True,
                          check=True)
    return {"metrics": json.loads(done.stdout.splitlines()[-1]), "nproc": os.cpu_count()}


def analyst_cli_run(tree: Path, seed: int, work: Path) -> dict:
    """Whole-process ``tbd fit`` and ``tbd estimate`` over ``ANALYST``, from ``tree``'s sources."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    tbd = [sys.executable, "-m", "tbd.cli"]
    data, fits, est = str(work / "sim" / "observed.json"), work / "fits.json", work / "est"
    subprocess.run(tbd + ["simulate", "--scenario", ANALYST["scenario"], "--seed", str(seed),
                          "--n", str(ANALYST["n"]), "--out", str(work / "sim")],
                   env=env, capture_output=True, check=True)
    metrics = {}
    for name, cmd in (("fit_s", ["fit", "--data", data, "--out", str(fits), "--seed", str(seed)]),
                      ("estimate_s", ["estimate", "--data", data, "--fits", str(fits),
                                      "--out", str(est), "--draws", str(ANALYST["draws"])])):
        start = time.perf_counter()
        subprocess.run(tbd + cmd, env=env, capture_output=True, check=True)
        metrics[name] = time.perf_counter() - start
    metrics["fits_bytes"] = fits.stat().st_size
    h = hashlib.sha256()
    for name in ("estimates.csv", "summary.csv"):
        h.update((est / name).read_bytes() + b"\0")
    return {"metrics": metrics, "nproc": os.cpu_count(), "estimates_sha256": h.hexdigest()}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, the ratio of the medians,
    and the pairs in which the change was strictly better."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        lower = better.get(name, "lower") == "lower"
        side = {s: [p[s]["metrics"][name] for p in pairs] for s in ("parent", "change")}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(side["parent"], side["change"]))
        parent, change = quartiles(side["parent"]), quartiles(side["change"])
        out[name] = {
            "better": "lower" if lower else "higher",
            "parent": parent, "change": change,
            "ratio": change["median"] / parent["median"] if parent["median"] else None,
            "parent_iqr": parent["q3"] - parent["q1"],
            "change_better_in_pairs": f"{wins}/{len(pairs)}",
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="source tree of the parent")
    ap.add_argument("--change", type=Path, required=True, help="source tree of the change")
    ap.add_argument("--out", type=Path, required=True, help="BENCH_*.json to create or update")
    pseudo = {"study_workers": study_run, "estimate_n2000": estimate_run,
              "analyst_cli": analyst_cli_run}
    ap.add_argument("--workload", required=True, choices=(*BENCH_WORKLOADS, *pseudo))
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--held-out", action="store_true",
                    help="record the seeds as held out: not used while the change was written")
    args = ap.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    trees = {"parent": args.parent, "change": args.change}
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair: dict = {"seed": seed, "first": order[0]}
        for side in order:
            if args.workload in pseudo:
                with tempfile.TemporaryDirectory() as tmp:
                    pair[side] = pseudo[args.workload](trees[side], seed, Path(tmp))
            else:
                pair[side] = bench_run(trees[side], args.workload, seed, seconds)
            print(f"{args.workload} seed {seed} {side}: "
                  + ", ".join(f"{k} {v:.4g}" for k, v in pair[side]["metrics"].items()),
                  file=sys.stderr)
        pairs.append(pair)

    if args.workload == "study_workers":
        command = (f"tbd study --config <{json.dumps(STUDY)} with master_seed <seed>> "
                   f"--workers <{' then '.join(map(str, STUDY_WORKERS))}>")
        across_workers = {s: sum(len(set(p[s]["cells_sha256"].values())) == 1 for p in pairs)
                          for s in trees}
        across_sides = sum(p["parent"]["cells_sha256"] == p["change"]["cells_sha256"]
                           for p in pairs)
        extra = {"seeds_with_the_same_cells_across_worker_counts":
                 {s: f"{n}/{len(pairs)}" for s, n in across_workers.items()},
                 "seeds_with_the_same_cells_across_sides": f"{across_sides}/{len(pairs)}"}
    elif args.workload == "estimate_n2000":
        command = (f"tbd simulate --scenario {ESTIMATE['scenario']} --n {ESTIMATE['n']} "
                   f"--seed <seed>; tbd fit --seed <seed>; then in a fresh process "
                   f"estimate_visits(..., {ESTIMATE['draws']})")
        extra = {"nproc": sorted({p[s]["nproc"] for p in pairs for s in trees})}
    elif args.workload == "analyst_cli":
        command = (f"tbd simulate --scenario {ANALYST['scenario']} --n {ANALYST['n']} "
                   f"--seed <seed>; then, each timed as a whole process, tbd fit --seed <seed> "
                   f"and tbd estimate --draws {ANALYST['draws']}")
        same = sum(p["parent"]["estimates_sha256"] == p["change"]["estimates_sha256"]
                   for p in pairs)
        extra = {"nproc": sorted({p[s]["nproc"] for p in pairs for s in trees}),
                 "seeds_with_the_same_estimate_csvs_across_sides": f"{same}/{len(pairs)}"}
    else:
        command = (f"python3 bench/run.py --workload {args.workload} --seed <seed> "
                   f"--seconds {seconds:g} --trace 0")
        runs = [p[s] for p in pairs for s in trees]
        extra = {
            "correct_runs": {s: f"{sum(p[s]['correct'] for p in pairs)}/{len(pairs)}"
                             for s in trees},
            "failed_ops": {s: f"{sum(p[s]['failed'] for p in pairs)}/"
                              f"{sum(p[s]['attempted'] for p in pairs)}" for s in trees},
            "nproc": sorted({r["nproc"] for r in runs}),
            "blas_threads": sorted({r["blas_threads"] for r in runs}, key=str),
        }
    section = {"command": command, "seeds": args.seeds,
               "order": "alternating: the parent first at the 1st, 3rd, ... seed",
               **extra, "summary": summarize(pairs, better), "pairs": pairs}

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("held_out" if args.held_out else "workloads", {})[args.workload] = section
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, s in section["summary"].items():
        print(f"{name:24s} parent {s['parent']['median']:.4g}  change {s['change']['median']:.4g}  "
              f"ratio {s['ratio'] if s['ratio'] is None else round(s['ratio'], 3)}  "
              f"change better {s['change_better_in_pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
