#!/usr/bin/env python3
"""Benchmark of tbd's study loop and analyst path.

Run from the repository root:

    python3 bench/run.py --workload study_n200 --seed 7 --seconds 15 --trace 0

Workloads. The seed makes the simulated trials; the program sees only them.

* ``study_n200``: cold study rounds at n=200, the desk scale the acceptance
  tests run 40 cells of. A round runs ``run_study`` over one ``no_effect``
  and one ``mixed`` cell into a fresh directory with the default sampler
  config (4 chains x 1000 warmup + 1000 samples), ``k_draws=100`` and one
  worker, then runs ``run_study`` again over the written cells and
  ``emit_report``. The sampler's per-call overhead dominates; ``mixed``
  exercises retries and failed slices.
* ``study_n2000``: the same pipeline, two ``no_effect`` cells a round, at
  n=2000, where the per-row arithmetic in each log-density call costs as
  much as its overhead, so a change that cuts calls and one that speeds
  arithmetic show differently here and on ``study_n200``. A cell takes
  about 30 s, so a run is one round; its two cells make the medians.
* ``analyst_estimate``: set-up simulates one ``no_effect`` trial (n=200)
  with ``tbd simulate`` and fits it with ``tbd fit``; each operation is one
  in-process ``tbd estimate --draws 4000`` over every pooled draw. The
  sampler is bypassed; the estimators and the posterior serializer work.
  Not ``mixed``: some of its trials have no treated patient alive and
  measured at month 15, and ``tbd fit`` then aborts on the zero-weight arm
  before writing any posterior, so no estimate could run. The study
  workloads still meet that case, as a failed slice.

Operations run back to back in one process (a closed loop with one
client). Another round or call starts only while it is expected to end
within ``--seconds``; at least one always runs. ``--trace 0`` reports the
end-to-end metrics; it hooks only each study cell and fit. ``--trace 1``
runs one round (on ``analyst_estimate``, the set-up and one call) with a
span at every layer boundary and reports the per-layer metrics from it.
It then repeats the first cell (or the call) untraced; the overhead is
the traced time over the untraced one. Its work is fixed, so its counts
repeat exactly at a fixed seed.

Results: human-readable lines, then a provenance line, then as the last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. An operation is a (cell, visit) slice on the study workloads
and one estimate call on ``analyst_estimate``; ``failed`` counts those lost
to an exception. Slices the study itself records as failed (convergence
or a zero-weight arm) are its output, reported as ``fail_frac``. Files go
under ``.bench_out/``: the result with the raw values behind each median,
the spans of a traced run, and output digests kept across runs so that a
repeat of the same code and seed must reproduce them.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import checks
import derive
from tracer import Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# workload -> (n, scenarios, replicates of each scenario in a round)
STUDIES = {"study_n200": (200, ("no_effect", "mixed"), 1),
           "study_n2000": (2000, ("no_effect",), 2)}
WORKLOADS = (*STUDIES, "analyst_estimate")
K_DRAWS = 100
ANALYST_SCENARIO = "no_effect"
ANALYST_N = 200
ANALYST_DRAWS = 4000
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_min": "1/min",
    "op_s_p50": "s",
    "min_ess_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYERS = ("study", "simulate", "survival", "longitudinal", "mcmc", "estimators",
          "metrics", "science", "cli")
PER_LAYER = {
    "mcmc.run_chains_s": "s", "mcmc.logdens_calls": "count", "mcmc.logdens_us": "us",
    "mcmc.self_s": "s", "mcmc.diag_s": "s", "mcmc.accept_min": "frac",
    "survival.fit_s": "s", "survival.fits": "count", "survival.logdens_calls": "count",
    "survival.min_ess": "draws", "survival.min_ess_per_s": "1/s", "survival.s_mis_s": "s",
    "survival.from_json_s": "s",
    "longitudinal.fit_s": "s", "longitudinal.fits": "count",
    "longitudinal.logdens_calls": "count", "longitudinal.min_ess": "draws",
    "longitudinal.min_ess_per_s": "1/s", "longitudinal.from_json_s": "s",
    "estimators.draws_s": "s", "estimators.rmst_s": "s", "estimators.self_s": "s",
    "estimators.draws_per_s": "1/s",
    "simulate.table_s": "s", "simulate.truths_s": "s",
    "metrics.ibs_s": "s", "metrics.cdauc_s": "s", "metrics.cdauc_skipped": "count",
    "study.cell_s": "s", "study.driver_s": "s", "study.resume_s": "s", "study.report_s": "s",
    "study.retry_frac": "frac", "study.fail_frac": "frac", "study.cell_bytes": "B",
    "science.load_json_s": "s", "science.fits_bytes": "B", "science.dump_json_s": "s",
    "cli.estimate_self_s": "s", "cli.csv_bytes": "B",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.overhead_frac": "frac", "trace.attributed_frac": "frac",
}

SETUP_PROBE = """import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import tbd.cli, tbd.study
{build}
print(time.perf_counter() - t0)
"""


@dataclass
class Run:
    """What one benchmark run measured and found."""

    metrics: dict
    raw: dict
    attempted: int
    failed: int
    problems: list
    digests: dict


# --- environment ---------------------------------------------------------------


def import_tbd():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "tbd" / "__init__.py").is_file():
        raise SystemExit(f"bench: no tbd package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import tbd
    import tbd.cli

    if Path(tbd.__file__).resolve().parent != (SRC / "tbd").resolve():
        raise SystemExit(f"bench: imported tbd from {tbd.__file__}, not from {SRC}")
    return tbd


def cold_setup_s(build: str) -> list[float]:
    """Seconds for a fresh interpreter to import tbd and build the
    workload's config, once per repeat."""
    code = SETUP_PROBE.format(src=str(SRC), build=build)
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def code_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "tbd").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args, code: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": blas_threads(),
        "git_commit": git_commit(), "code_sha256": code,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- study workloads -------------------------------------------------------------


@dataclass
class Round:
    span: derive.Span
    cold: object
    problems: list
    digest: str
    cell_bytes: float
    failed_slices: int
    slices: int


def round_seed(seed: int, r: int) -> int:
    return int.from_bytes(hashlib.sha256(f"{seed}/{r}".encode()).digest()[:4], "little")


def study_round(tbd, cfg, out_dir: Path, rec: Recorder) -> Round:
    """One cold study into ``out_dir``, its resume, and its report."""
    study = tbd.study
    with rec.span("study.round", op=True) as rnd:
        with rec.span("study.run_study"):
            cold = study.run_study(cfg, out_dir, workers=1)
        with rec.span("study.resume"):
            warm = study.run_study(cfg, out_dir, workers=1)
        with rec.span("study.report"):
            study.emit_report(warm, out_dir / "report")
    files = sorted((out_dir / "cells").glob("*.json"))
    visits = {s.name: len(s.visit_times) for s in cfg.scenarios}
    slices = sum(visits[c.scenario] for c in cold.cells)
    failed = sum(visits[c.scenario] if c.failed else sum(ct.failed for ct in c.times)
                 for c in cold.cells)
    return Round(
        span=rnd, cold=cold, problems=checks.study_problems(cold, warm),
        digest=checks.digest(files),
        cell_bytes=sum(p.stat().st_size for p in files) / len(files),
        failed_slices=failed, slices=slices,
    )


def cell_ess(rec: Recorder, cells) -> list[tuple[float, list[float]]]:
    """(CPU s, [min ESS of each fit the cell kept]) per cell: the final
    attempt of each fit, when it passed diagnostics; the study drops the
    others."""
    fits = rec.named("survival.fit_survival", "longitudinal.fit_longitudinal")
    out = []
    for c in cells:
        finals, _ = derive.final_attempts([f for f in fits if f.op == c.id])
        out.append((c.attrs["cpu_s"], [f.attrs["min_ess"] for f in finals if f.attrs["converged"]]))
    return out


def run_study_workload(tbd, args, work: Path) -> Run:
    n, names, replicates = STUDIES[args.workload]
    doc = {"scenarios": list(names), "n": n, "replicates": replicates, "k_draws": K_DRAWS,
           "master_seed": args.seed}
    setup = cold_setup_s(f"tbd.study.build_config({doc!r})")
    cfg = tbd.study.build_config(doc)

    rec = Recorder()
    if args.trace:
        rec.full(tbd)
    else:
        rec.boundary(tbd)
    rounds: list[Round] = []
    try:
        start = time.perf_counter()
        while True:
            r = len(rounds)
            cfg_r = replace(cfg, master_seed=round_seed(args.seed, r))
            rounds.append(study_round(tbd, cfg_r, work / f"round{r}", rec))
            shutil.rmtree(work / f"round{r}")
            elapsed = time.perf_counter() - start
            if args.trace or elapsed * (r + 2) / (r + 1) > args.seconds:
                break
    finally:
        rec.restore()

    cells = rec.named("study.run_cell")
    ess = cell_ess(rec, cells)
    problems = [p for rnd in rounds for p in rnd.problems]
    digests = {f"round{r}": rnd.digest for r, rnd in enumerate(rounds)}
    attempted = sum(rnd.slices for rnd in rounds)
    failed_slices = sum(rnd.failed_slices for rnd in rounds)
    crashed = sum(c.attrs["visits"] for c in cells if "crashed" in c.attrs)
    raw = {
        "setup_s": setup,
        "cell_s": [c.duration for c in cells],
        "cell_cpu_s": [c.attrs["cpu_s"] for c in cells],
        "cell_scenario": [c.attrs["scenario"] for c in cells],
        "round_s": [rnd.span.duration for rnd in rounds],
        "cell_fit_min_ess": [e for _, e in ess],
        "fail_frac": derive.fail_frac(attempted, failed_slices),
        "failed_slices": failed_slices,
        "op_s_percentile": derive.tail_percentile([c.duration for c in cells]),
    }
    metrics = {
        "setup_s": derive.median(setup),
        "ops_per_min": 60.0 * len(cells) / sum(raw["round_s"]),
        "op_s_p50": derive.median(raw["cell_s"]),
        "min_ess_per_cpu_s": derive.min_ess_per_cpu_s(ess),
    }
    if args.trace:
        # the same first cell again without tracing gives the overhead
        cfg_0 = replace(cfg, master_seed=round_seed(args.seed, 0))
        t0 = time.perf_counter()
        again = tbd.study.run_cell(cfg_0, cfg_0.scenarios[0], 0)
        untraced_s = time.perf_counter() - t0
        if again.to_doc() != rounds[0].cold.cells[0].to_doc():
            problems.append("untraced rerun of the first cell differs from its traced run")
        metrics = layer_metrics(rec, {c.id for c in cells}, setup_ops=set())
        metrics.update({
            "study.cell_s": derive.median(raw["cell_s"]),
            "study.driver_s": derive.median(derive.self_times(rec.spans)[s.id]
                                            for s in rec.named("study.run_study")),
            "study.resume_s": derive.median(s.duration for s in rec.named("study.resume")),
            "study.report_s": derive.median(s.duration for s in rec.named("study.report")),
            "study.fail_frac": raw["fail_frac"],
            "study.cell_bytes": rounds[0].cell_bytes,
            "trace.overhead_frac": cells[0].duration / untraced_s - 1.0,
            "trace.attributed_frac": derive.attributed_frac(cells, rec.spans),
        })
        if metrics["trace.attributed_frac"] < 0.95:
            problems.append(f"only {metrics['trace.attributed_frac']:.3f} of traced cell time "
                            "is inside a named layer span")
        raw["spans"] = rec.spans
    return Run(metrics, raw, attempted, crashed, problems, digests)


# --- analyst workload -------------------------------------------------------------


def cli(tbd, *argv: str) -> None:
    """One in-process ``tbd`` command; its messages go to stderr so the
    benchmark's result stays the last line of stdout."""
    with contextlib.redirect_stdout(sys.stderr):
        tbd.cli.main(list(argv), standalone_mode=False)


def analyst_setup(tbd, seed: int, work: Path, rec: Recorder):
    with rec.span("setup", op=True) as setup:
        cli(tbd, "simulate", "--scenario", ANALYST_SCENARIO, "--seed", str(seed),
            "--n", str(ANALYST_N), "--out", str(work))
        with rec.span("cli.fit") as fit:
            cli(tbd, "fit", "--data", str(work / "observed.json"),
                "--out", str(work / "fits.json"), "--seed", str(seed))
    return setup, fit


def estimate_call(tbd, seed: int, work: Path, rec: Recorder) -> derive.Span:
    """One ``tbd estimate`` over every pooled draw. A call that raises is
    marked ``crashed`` on its span and counted as failed."""
    with rec.span("cli.estimate", op=True) as s:
        try:
            cli(tbd, "estimate", "--data", str(work / "observed.json"),
                "--fits", str(work / "fits.json"), "--out", str(work / "estimate"),
                "--draws", str(ANALYST_DRAWS), "--seed", str(seed), "--label", "bench")
        except Exception as exc:  # one failing call must not end the run
            traceback.print_exc(file=sys.stderr)
            s.attrs["crashed"] = f"{type(exc).__name__}: {exc}"
    return s


def run_analyst_workload(tbd, args, work: Path) -> Run:
    build = f"tbd.simulate.get_scenario({ANALYST_SCENARIO!r}).with_updates(n={ANALYST_N})"
    setup_probe = cold_setup_s(build)
    visits = tbd.simulate.get_scenario(ANALYST_SCENARIO).visit_times
    est_files = [work / "estimate" / "estimates.csv", work / "estimate" / "summary.csv"]

    rec = Recorder()
    if args.trace:
        rec.full(tbd)
    else:
        rec.boundary(tbd)
    calls, digests = [], []
    try:
        setup, fit = analyst_setup(tbd, args.seed, work, rec)
        if args.trace:
            traced = estimate_call(tbd, args.seed, work, rec)
            if "crashed" not in traced.attrs:
                digests.append(checks.digest(est_files))
    finally:
        rec.restore()
    problems = checks.null_truths_problems(work / "truths.csv")
    fits_digest = checks.digest([work / "fits.json"])
    finals, _ = derive.final_attempts(
        rec.named("survival.fit_survival", "longitudinal.fit_longitudinal"))
    fit_ess = [f.attrs["min_ess"] for f in finals if f.attrs["converged"]]

    start = time.perf_counter()
    while True:
        span = estimate_call(tbd, args.seed, work, rec)
        calls.append(span)
        if "crashed" not in span.attrs:
            problems += checks.estimate_problems(work / "estimate", visits, ANALYST_DRAWS)
            digests.append(checks.digest(est_files))
        elapsed = time.perf_counter() - start
        if args.trace or elapsed * (len(calls) + 1) / len(calls) > args.seconds:
            break
    if len(set(digests)) > 1:
        problems.append("repeated estimate calls wrote different outputs")

    ops = [traced, *calls] if args.trace else calls
    failed = sum("crashed" in c.attrs for c in ops)
    raw = {
        "setup_probe_s": setup_probe,
        "setup_body_s": setup.duration,
        "fit_s": fit.duration,
        "estimate_s": [c.duration for c in calls],
        "estimate_cpu_s": [c.attrs["cpu_s"] for c in calls],
        "fit_min_ess": fit_ess,
        "fail_frac": derive.fail_frac(len(ops), failed),
        "op_s_percentile": derive.tail_percentile([c.duration for c in calls]),
    }
    metrics = {
        "setup_s": derive.median(setup_probe) + setup.duration,
        "ops_per_min": 60.0 * len(calls) / elapsed,
        "op_s_p50": derive.median(raw["estimate_s"]),
        # the fits behind each call's estimates are the set-up's
        "min_ess_per_cpu_s": derive.min_ess_per_cpu_s(
            [(c.attrs["cpu_s"], fit_ess) for c in calls if "crashed" not in c.attrs]),
    }
    if args.trace:
        metrics = layer_metrics(rec, {traced.id}, setup_ops={setup.id})
        metrics.update({
            "science.fits_bytes": float((work / "fits.json").stat().st_size),
            "cli.csv_bytes": float(sum(p.stat().st_size for p in est_files)),
            "trace.overhead_frac": traced.duration / calls[0].duration - 1.0,
            "trace.attributed_frac": derive.attributed_frac([traced], rec.spans),
        })
        raw["spans"] = rec.spans
    return Run(metrics, raw, len(ops), failed, problems,
               {"fits": fits_digest, "estimate": digests[0] if digests else None})


# --- per-layer metrics from spans -------------------------------------------------


def layer_metrics(rec: Recorder, ops: set[int], setup_ops: set[int]) -> dict:
    """Per-layer figures over the traced operations ``ops``: each is the
    layer's total in one operation, median over operations, unless its
    definition says otherwise. A layer the operations never call reads 0."""
    spans = rec.spans
    by_id = {s.id: s for s in spans}
    own = derive.self_times(spans)
    mine = [s for s in spans if s.op in ops]

    def per_op(names, value=lambda s: s.duration, keep=lambda s: True, among=mine):
        sums: dict[int, float] = {}
        for s in among:
            if s.name in names and keep(s):
                sums[s.op] = sums.get(s.op, 0.0) + value(s)
        return derive.median(sums.values()) if sums else 0.0

    def fit_layer(s):
        while s is not None and s.layer not in ("survival", "longitudinal"):
            s = by_id.get(s.parent)
        return None if s is None else s.layer

    chains = [s for s in mine if s.name == "mcmc.run_chains"]
    calls = sum(s.attrs["logdens_calls"] for s in chains)
    out = {
        "mcmc.run_chains_s": per_op({"mcmc.run_chains"}),
        "mcmc.logdens_calls": per_op({"mcmc.run_chains"}, lambda s: s.attrs["logdens_calls"]),
        "mcmc.logdens_us": 1e6 * sum(s.attrs["model_s"] for s in chains) / calls if calls else 0.0,
        "mcmc.self_s": per_op({"mcmc.run_chains"}, lambda s: own[s.id]),
        "mcmc.diag_s": per_op({"mcmc.rhat", "mcmc.ess"}),
        "mcmc.accept_min": min((s.attrs["accept_min"] for s in chains if "accept_min" in s.attrs),
                               default=0.0),
    }
    for layer in ("survival", "longitudinal"):
        fit = f"{layer}.fit_{layer}"
        fits = [s for s in mine if s.name == fit]
        out[f"{layer}.fit_s"] = per_op({fit})
        out[f"{layer}.fits"] = per_op({fit}, lambda s: 1)
        out[f"{layer}.logdens_calls"] = per_op(
            {"mcmc.run_chains"}, lambda s: s.attrs["logdens_calls"],
            keep=lambda s, layer=layer: fit_layer(s) == layer)
        ess, rate = [], []
        for op in {s.op for s in fits}:
            finals, _ = derive.final_attempts([s for s in fits if s.op == op])
            kept = [s.attrs["min_ess"] for s in finals if s.attrs.get("converged")]
            if kept:
                ess.append(min(kept))
                rate.append(min(kept) / sum(s.duration for s in fits if s.op == op))
        out[f"{layer}.min_ess"] = derive.median(ess) if ess else 0.0
        out[f"{layer}.min_ess_per_s"] = derive.median(rate) if rate else 0.0
        out[f"{layer}.from_json_s"] = per_op({f"{layer}.from_json"})
    draws = [s for s in mine if s.name == "estimators.estimand_draws"]
    finals, n_attempts = derive.final_attempts(
        [s for s in mine if s.name in ("survival.fit_survival", "longitudinal.fit_longitudinal")])
    out.update({
        "survival.s_mis_s": per_op({"survival.s_mis_matrix"}),
        "estimators.draws_s": per_op({"estimators.estimand_draws"}),
        "estimators.rmst_s": per_op({"estimators.rmst_estimand_draws"}),
        "estimators.self_s": per_op({"estimators.estimand_draws"}, lambda s: own[s.id]),
        "estimators.draws_per_s": (sum(s.attrs.get("draws", 0) for s in draws)
                                   / sum(s.duration for s in draws)) if draws else 0.0,
        "simulate.table_s": per_op({"simulate.simulate_science_table"}),
        "simulate.truths_s": per_op({"simulate.true_estimands"}),
        "metrics.ibs_s": per_op({"metrics.ibs"}),
        "metrics.cdauc_s": per_op({"metrics.cdauc"}),
        "metrics.cdauc_skipped": per_op({"metrics.cdauc"}, lambda s: s.attrs["skipped"]),
        "study.retry_frac": derive.retry_frac(n_attempts, len(finals)),
        "science.load_json_s": per_op({"science.load_json"}),
        "science.dump_json_s": per_op({"science.dump_json"},
                                      among=[s for s in spans if s.op in setup_ops]),
        "cli.estimate_self_s": per_op({"cli.estimate"}, lambda s: own[s.id]),
    })
    per_layer_self: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    for op in ops:
        totals = derive.layer_self_times(spans, keep=lambda s, op=op: s.op == op)
        for layer in LAYERS:
            per_layer_self[layer].append(totals.get(layer, 0.0))
    out.update({f"self.{layer}_s": derive.median(v) for layer, v in per_layer_self.items()})
    return {name: out.get(name, 0.0) for name in PER_LAYER}


# --- digests kept across runs ------------------------------------------------------


def check_digests(args, code: str, digests: dict) -> list[str]:
    """Compare this run's output digests with earlier runs of the same code,
    workload and seed in this checkout, and record the new ones."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    problems = []
    for part, value in digests.items():
        key = f"{code[:16]}/{args.workload}/{args.seed}/{part}"
        if value is None:
            continue
        if known.setdefault(key, value) != value:
            problems.append(f"{part}: output digest differs from an earlier run of the same "
                            "code and seed")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


# --- main ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    tbd = import_tbd()
    code = code_sha256()
    prov = provenance(args, code)
    OUT.mkdir(exist_ok=True)
    work = OUT / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload in STUDIES:
            run = run_study_workload(tbd, args, work)
        else:
            run = run_analyst_workload(tbd, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        run.metrics["peak_rss_mb"] = peak_rss_mb()
    problems = run.problems + check_digests(args, code, run.digests)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = float(run.metrics[name])
        if not math.isfinite(value):  # e.g. no fit passed diagnostics: nothing to report
            problems.append(f"metric {name} could not be measured ({value})")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}

    spans = run.raw.pop("spans", None)
    stamp = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{stamp}.json").write_text(json.dumps(
        {"provenance": prov, "metrics": metrics, "raw": run.raw, "digests": run.digests,
         "problems": problems}, indent=1, default=str))
    if spans is not None:
        (OUT / "traces").mkdir(exist_ok=True)
        (OUT / "traces" / f"{stamp}.json").write_text(json.dumps([asdict(s) for s in spans]))

    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':32s} {run.raw['fail_frac']:.6g} frac "
          "(slices or calls the program reported failed)")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print("provenance " + json.dumps({**prov, "raw": run.raw}, default=str))
    print(json.dumps({"correct": not problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
