"""Correctness checks on what the program wrote. Each returns a list of
problems; an empty list means the outputs passed."""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

ESTIMANDS = ("sace", "pc", "sim", "rmst")


def digest(paths) -> str:
    """SHA-256 over the names and bytes of ``paths``, in the order given."""
    h = hashlib.sha256()
    for p in paths:
        p = Path(p)
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def _bounds(where: str, name: str, t: float, lo, med, hi) -> list[str]:
    out = []
    if med is None:
        return out
    if not lo <= med <= hi:
        out.append(f"{where} {name}: median {med} outside its interval [{lo}, {hi}]")
    for v in (lo, med, hi):
        if name == "pc" and not 0.0 <= v <= 1.0:
            out.append(f"{where} pc: {v} outside [0, 1]")
        if name == "rmst" and not abs(v) <= t:
            out.append(f"{where} rmst: |{v}| exceeds t={t:g}")
    return out


def _null_truth_ok(sace, pc, sim, rmst, n_ll) -> bool:
    """Identical arms make every truth exact: no always-survivor effect
    (undefined without always-survivors), even odds, zero median, zero
    restricted-mean difference."""
    sace_ok = sace == 0.0 if n_ll else sace is None
    return sace_ok and pc == 0.5 and sim == 0.0 and rmst == 0.0


def study_problems(cold, warm) -> list[str]:
    """Cold and resumed study results: exact null truths on ``no_effect``,
    ordered and in-range summaries, and a resume that reproduces the cells."""
    problems = []
    if [c.to_doc() for c in cold.cells] != [c.to_doc() for c in warm.cells]:
        problems.append("resumed study returned cells that differ from the cold run")
    for cell in cold.cells:
        for ct in cell.times:
            where = f"{cell.scenario} r{cell.replicate} t={ct.time:g}"
            tr = ct.truth
            if cell.scenario == "no_effect" and not _null_truth_ok(
                    tr.sace, tr.pc, tr.sim, tr.rmst, tr.n_ll):
                problems.append(f"{where}: no_effect truth is not exact: {tr}")
            for name, s in ct.summaries.items():
                problems += _bounds(where, name, ct.time, s.lo95, s.median, s.hi95)
    return problems


def _num(text: str):
    return None if text == "-" else float(text)


def estimate_problems(out_dir: Path, visit_times, draws: int) -> list[str]:
    """``tbd estimate`` output: one row per estimand, visit and draw; every
    PC draw in [0, 1] and every RMST draw within +-t; ordered summaries."""
    problems = []
    with open(out_dir / "estimates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = len(ESTIMANDS) * len(visit_times) * draws
    if len(rows) != expected:
        problems.append(f"estimates.csv has {len(rows)} rows, expected {expected}")
    for r in rows:
        v, t = _num(r["value"]), float(r["time"])
        if v is None:
            continue
        if r["estimand"] == "pc" and not 0.0 <= v <= 1.0:
            problems.append(f"pc draw {r['draw_index']} at t={t:g} is {v}")
        if r["estimand"] == "rmst" and not abs(v) <= t:
            problems.append(f"rmst draw {r['draw_index']} at t={t:g} is {v}")
    with open(out_dir / "summary.csv", newline="") as fh:
        for r in csv.DictReader(fh):
            if r["estimand"] in ESTIMANDS:
                t = float(r["time"])
                problems += _bounds(f"summary t={t:g}", r["estimand"], t,
                                    _num(r["lo95"]), _num(r["median"]), _num(r["hi95"]))
    return problems[:20]


def null_truths_problems(path: Path) -> list[str]:
    """``truths.csv`` written by ``tbd simulate`` for a no-effect trial."""
    problems = []
    with open(path, newline="") as fh:
        for r in csv.DictReader(fh):
            values = [_num(r[k]) for k in ("sace", "pc", "sim", "rmst")]
            if not _null_truth_ok(*values, int(r["n_ll"])):
                problems.append(f"truths.csv t={r['time']}: no_effect truth is not exact: {r}")
    return problems
