"""ADEMP study driver: scenarios x replicates, end to end.

Each (scenario, replicate) cell simulates a trial, fits the survival model,
computes always-survivor weights from the survival posterior mean, fits the
longitudinal model at every visit time, evaluates the estimators over paired
posterior draws, and scores bias/coverage against the exact finite-sample
truths. Cells are independent work units with self-contained seed streams
derived from the master seed, so results do not depend on scheduling order;
completed cells are cached on disk keyed by a hash of the config and of the
package's code, and skipped on re-runs. ``fit_posteriors`` is the one fitting
path, shared with ``tbd fit``: a fit that fails convergence diagnostics is
retried once with doubled samples and then recorded as failed; aggregates
count only successful cells.

The weights of all visits take the posterior-mean counterfactual survival
from one ``SurvivalPosterior.s_mis_matrix`` call over the visit times, which
sums it over blocks of draws instead of averaging a (draws, patients)
matrix and computes each block's covariate scales once for every visit.
A cell summarizes all its visits' estimands whose draws are all finite with
one percentile call.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .codec import decode, encode
from .estimators import (
    ESTIMANDS,
    EstimandSummary,
    estimand_draws,
    naive_effect,
    rmst_estimand_draws,
    summaries_of,
    summarize,
    wmw,
)
from .longitudinal import (
    LongitudinalFitError,
    LongitudinalPosterior,
    LongPriors,
    compute_weights,
    counterfactual_mean,
    fit_longitudinal,
)
from .mcmc import McmcConfig, diagnostic_extremes
from .metrics import BiasCoverage, bias_and_coverage, cdauc, ibs, mae_reconstruction
from .simulate import (
    ScenarioParams,
    TruthRecord,
    _params_from_dict,
    child_seed,
    get_scenario,
    load_scenarios,
    observe,
    simulate_science_table,
    true_estimands,
)
from .survival import HazardGrid, SurvivalPosterior, SurvivalPriors, default_grid, fit_survival


@dataclass(frozen=True)
class StudyConfig:
    scenarios: tuple[ScenarioParams, ...]
    replicates: int = 20
    k_draws: int = 100
    master_seed: int = 20240901
    mcmc: McmcConfig = field(default_factory=McmcConfig)
    survival_priors: SurvivalPriors = field(default_factory=SurvivalPriors)
    long_priors: LongPriors = field(default_factory=LongPriors)
    grid_cutpoints: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        pool = self.mcmc.chains * self.mcmc.samples
        if self.scenarios and not 1 <= self.k_draws <= pool:
            raise ValueError(f"k_draws must be in 1..{pool} (mcmc.chains * mcmc.samples), "
                             f"got {self.k_draws}")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError("scenario names must be unique")

    def grid_for(self, follow_up: float, visit_times) -> HazardGrid:
        if self.grid_cutpoints is not None:
            return HazardGrid(cutpoints=self.grid_cutpoints)
        return default_grid(follow_up, visit_times)

    def content_hash(self) -> str:
        """Cache key of the cells: this config and the code that computes them."""
        doc = {"config": encode(self), "code": code_fingerprint()}
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf8")).hexdigest()[:16]


@functools.cache
def code_fingerprint() -> str:
    """sha256 of the package's sources and scenario library, so cells cached
    by other code are recomputed rather than resumed."""
    h = hashlib.sha256()
    pkg = Path(__file__).parent
    for path in [*sorted(pkg.glob("*.py")), pkg / "scenarios.json"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@dataclass
class CellTimeResult:
    """One (scenario, replicate, visit time) slice of the study grid."""

    time: float
    truth: TruthRecord
    summaries: dict[str, EstimandSummary]
    bias_coverage: dict[str, BiasCoverage]
    naive: float | None
    wmw: float | None
    death_pct: float
    mae: float | None
    failed: bool = False
    failure: str | None = None


@dataclass
class CellResult:
    scenario: str
    replicate: int
    times: list[CellTimeResult]
    ibs: float | None = None
    cdauc: float | None = None
    survival_rhat: float | None = None
    failed: bool = False
    failure: str | None = None

    def to_doc(self) -> dict:
        return encode(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "CellResult":
        return decode(cls, doc)


@dataclass
class StudyResults:
    config_hash: str
    cells: list[CellResult]

    @property
    def n_failed(self) -> int:
        return sum(c.failed for c in self.cells) + sum(
            ct.failed for c in self.cells for ct in c.times
        )



def _seed_int(master_seed: int, *parts) -> int:
    return int(child_seed(master_seed, *parts).generate_state(1)[0])


def _fit_with_retry(fit_fn, cfg: McmcConfig):
    """Run a fit; on diagnostic failure retry once with doubled samples."""
    post = fit_fn(cfg)
    if post.converged:
        return post, None
    post = fit_fn(replace(cfg, samples=2 * cfg.samples, seed=cfg.seed + 1))
    if post.converged:
        return post, None
    worst, least = diagnostic_extremes(post.diagnostics)
    return post, f"convergence failure after retry (worst rhat {worst:.3f}, min ess {least:.0f})"


@dataclass
class Posteriors:
    """The two-step fit of one dataset. ``longitudinal`` holds every visit's
    posterior that could be drawn, flagged or not; ``failures`` names each
    visit whose fit is not usable and why."""

    survival: SurvivalPosterior
    survival_failure: str | None
    longitudinal: dict[float, LongitudinalPosterior]
    failures: dict[float, str]


def fit_posteriors(data, config: StudyConfig, *seed_parts) -> Posteriors:
    """Fit the survival model, then at each visit the longitudinal model
    weighted by the posterior-mean counterfactual survival. Fit seeds derive
    from ``config.master_seed`` and ``seed_parts``; each fit is retried once
    on diagnostic failure."""
    seed = config.master_seed
    grid = config.grid_for(data.follow_up, data.visit_times)
    spost, serr = _fit_with_retry(
        lambda c: fit_survival(data, grid, config.survival_priors, c),
        replace(config.mcmc, seed=_seed_int(seed, *seed_parts, "surv")),
    )
    fits = Posteriors(survival=spost, survival_failure=serr, longitudinal={}, failures={})
    s_mis = spost.s_mis_matrix(data, data.visit_times)
    for ti, t in enumerate(data.visit_times):
        weights = compute_weights(s_mis[ti], data, t)
        try:
            lpost, lerr = _fit_with_retry(
                lambda c: fit_longitudinal(data, t, weights, config.long_priors, c),
                replace(config.mcmc, seed=_seed_int(seed, *seed_parts, "long", ti)),
            )
        except LongitudinalFitError as exc:
            fits.failures[t] = str(exc)
            continue
        fits.longitudinal[t] = lpost
        if lerr is not None:
            fits.failures[t] = lerr
    return fits


def run_cell(config: StudyConfig, scenario: ScenarioParams, replicate: int) -> CellResult:
    """Simulate, fit, estimate, and score one replicate of one scenario."""
    seed = config.master_seed
    science = simulate_science_table(
        scenario, child_seed(seed, scenario.name, replicate, "sim")
    )
    data = observe(science)
    truths = {t: true_estimands(science, t) for t in scenario.visit_times}

    fits = fit_posteriors(data, config, scenario.name, replicate)
    if fits.survival_failure is not None:
        failure = f"survival fit: {fits.survival_failure}"
        return CellResult(scenario.name, replicate, times=[], failed=True, failure=failure)
    spost = fits.survival

    cols = data.columns
    x, w = cols.x, cols.w
    draws = {t: estimand_draws(spost, lpost, data, t, config.k_draws)
             for t, lpost in fits.longitudinal.items() if t not in fits.failures}
    # one percentile call for every visit's estimands with all draws finite
    summaries_at = dict(zip(draws, summaries_of(list(draws.values()))))

    results: list[CellTimeResult] = []
    for t in scenario.visit_times:
        failure = fits.failures.get(t)
        if failure is None:
            summaries, naive, wmw_ref = summaries_at[t], draws[t].naive, draws[t].wmw
            lpost = fits.longitudinal[t]
            mu_mis_mean = counterfactual_mean(lpost.beta0.mean(axis=0), lpost.beta1.mean(axis=0), x, w)
            mae = mae_reconstruction(science, mu_mis_mean, t)
        else:
            # the restricted-mean contrast and the data-only references do
            # not need the longitudinal fit; keep them
            summaries = {"rmst": summarize(rmst_estimand_draws(spost, data, t, config.k_draws))}
            naive, wmw_ref, mae = naive_effect(data, t), wmw(data, t), None
        results.append(
            CellTimeResult(
                time=t,
                truth=truths[t],
                summaries=summaries,
                bias_coverage={name: bias_and_coverage(summary, getattr(truths[t], name))
                               for name, summary in summaries.items()},
                naive=naive,
                wmw=wmw_ref,
                death_pct=100.0 * float(np.mean(~cols.at(t).alive)),
                mae=mae,
                failed=failure is not None,
                failure=None if failure is None else f"longitudinal fit: {failure}",
            )
        )

    # reconstruction metrics for the observed-arm survival fit; the grid
    # stops a month short of the censoring horizon where controls run out
    months = np.arange(2.0, scenario.follow_up)
    overlaps = spost.grid.overlaps(months)
    base = np.stack([overlaps @ spost.lambda0.mean(axis=0), overlaps @ spost.lambda1.mean(axis=0)])
    scale = np.exp(np.where(w == 1, x @ spost.alpha1.mean(axis=0), x @ spost.alpha0.mean(axis=0)))
    surv_pred = np.exp(-base[w] * scale[:, None])
    try:
        cell_ibs = ibs(surv_pred, data, months)
        cell_cdauc = cdauc(1.0 - surv_pred, data, months)
    except ValueError:
        cell_ibs = None
        cell_cdauc = None

    worst_rhat, _ = diagnostic_extremes(spost.diagnostics)
    return CellResult(
        scenario=scenario.name,
        replicate=replicate,
        times=results,
        ibs=cell_ibs,
        cdauc=cell_cdauc,
        survival_rhat=None if math.isnan(worst_rhat) else worst_rhat,
    )


def _cell_path(out_dir: Path, scenario: str, replicate: int) -> Path:
    return out_dir / "cells" / f"{scenario}__r{replicate:04d}.json"


def _run_cell_job(args):
    """``run_cell``, with a crash recorded as a failed cell so that it costs
    this cell only; its traceback goes to stderr."""
    config, scenario, replicate = args
    try:
        return run_cell(config, scenario, replicate)
    except Exception as exc:
        traceback.print_exc()
        failure = f"crashed: {type(exc).__name__}: {exc}"
        return CellResult(scenario.name, replicate, times=[], failed=True, failure=failure)


def run_study(config: StudyConfig, out_dir, workers: int = 1) -> StudyResults:
    """Run all (scenario, replicate) cells, caching each in ``out_dir``.

    Cells already present with a matching config hash are loaded instead of
    recomputed. ``workers`` processes run the cells; each cell is
    deterministic given the master seed, so scheduling does not affect
    results.
    """
    out_dir = Path(out_dir)
    (out_dir / "cells").mkdir(parents=True, exist_ok=True)
    chash = config.content_hash()

    cells = {
        (cell.scenario, cell.replicate): cell
        for cell_hash, cell in load_cells(out_dir)
        if cell_hash == chash
    }
    pending = [
        (scenario, rep)
        for scenario in config.scenarios
        for rep in range(config.replicates)
        if (scenario.name, rep) not in cells
    ]

    jobs = [(config, s, r) for s, r in pending]
    parallel = workers > 1 and bool(jobs)
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        done = (pool.map if parallel else map)(_run_cell_job, jobs)
        for (scenario, rep), cell in zip(pending, done):
            cells[(scenario.name, rep)] = cell
            _write_cell(out_dir, chash, cell)

    ordered = [
        cells[(s.name, r)]
        for s in config.scenarios
        for r in range(config.replicates)
    ]
    return StudyResults(config_hash=chash, cells=ordered)


def _write_cell(out_dir: Path, chash: str, cell: CellResult) -> None:
    """Write through a temporary file so a killed run leaves either the old
    cell file or the new one, never a truncated one."""
    path = _cell_path(out_dir, cell.scenario, cell.replicate)
    tmp = path.with_name(path.name + ".tmp")
    doc = {"config_hash": chash, "cell": cell.to_doc()}
    tmp.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    os.replace(tmp, path)


def load_cells(out_dir) -> list[tuple[str, CellResult]]:
    """(config hash, cell) for every readable cell file under ``out_dir``,
    in file-name order. An unreadable or truncated file is skipped with a
    warning, so a study recomputes that cell."""
    loaded = []
    for path in sorted((Path(out_dir) / "cells").glob("*.json")):
        try:
            doc = json.loads(path.read_text())
            loaded.append((doc["config_hash"], CellResult.from_doc(doc["cell"])))
        except (ValueError, KeyError, TypeError) as exc:
            warnings.warn(f"ignoring unreadable cell file {path}: {exc!r}")
    return loaded


# --- aggregation and report files ---------------------------------------------


def fmt(v, spec: str = ".4f") -> str:
    """Report-file text of a number: "-" for missing or NaN values."""
    if v is None:
        return "-"
    if isinstance(v, bool):
        return str(int(v))
    return fmt_floats((float(v),), spec)[0]


def fmt_floats(values, spec: str = ".4f") -> list[str]:
    """``fmt`` of each float in ``values`` in one pass: "-" for NaN, else
    ``format(v, spec)``, which writes the infinities as "inf" and "-inf"."""
    return ["-" if v != v else format(v, spec) for v in values]


def _estimand_groups(results: StudyResults):
    """For each (scenario, time, estimand), in that order: the row key, the
    visit's slices across replicates, the summaries of the slices that
    computed the estimand (the others' fit failed) and their defined
    bias/coverage records."""
    slices_at: dict[tuple[str, float], list[CellTimeResult]] = {}
    for cell in results.cells:
        for ct in cell.times:
            slices_at.setdefault((cell.scenario, ct.time), []).append(ct)
    for (scenario, t), slices in sorted(slices_at.items()):
        for name in ESTIMANDS:
            present = [ct for ct in slices if name in ct.summaries]
            defined = [ct.bias_coverage[name] for ct in present if ct.bias_coverage[name].defined]
            key = {"scenario": scenario, "time": t, "estimand": name}
            yield key, slices, [ct.summaries[name] for ct in present], defined


def coverage_rows(results: StudyResults) -> list[dict]:
    """One row per (scenario, time, estimand): mean truth, coverage percent,
    death percent range across replicates. Coverage counts only cells where
    the estimand was computed and its truth is defined; undefined truths
    print as '-'; cells whose fit failed for this estimand are counted in
    ``n_failed``."""
    rows = []
    for key, slices, summaries, defined in _estimand_groups(results):
        deaths = [ct.death_pct for ct in slices]
        truths = [bc.truth for bc in defined]
        covered = [bc.covered for bc in defined]
        rows.append(
            {
                **key,
                "truth": float(np.mean(truths)) if truths else None,
                "coverage_pct": 100.0 * float(np.mean(covered)) if covered else None,
                "n_cells": len(defined),
                "n_undefined": len(summaries) - len(defined),
                "n_failed": len(slices) - len(summaries),
                "death_pct_min": min(deaths),
                "death_pct_max": max(deaths),
            }
        )
    return rows


def bias_rows(results: StudyResults) -> list[dict]:
    """One row per (scenario, time, estimand): bias percentile interval
    across replicates (2.5/97.5) plus the raw extremes."""
    rows = []
    for key, _, _, defined in _estimand_groups(results):
        biases = [bc.bias for bc in defined]
        row = {**key, "truth": None, "bias_lo": None, "bias_hi": None, "bias_min": None,
               "bias_max": None, "bias_mean": None, "n_cells": len(biases)}
        if biases:
            lo, hi = np.percentile(biases, [2.5, 97.5])
            row.update(
                truth=float(np.mean([bc.truth for bc in defined])),
                bias_lo=float(lo),
                bias_hi=float(hi),
                bias_min=float(min(biases)),
                bias_max=float(max(biases)),
                bias_mean=float(np.mean(biases)),
            )
        rows.append(row)
    return rows


def figure_rows(results: StudyResults) -> list[dict]:
    """Per (scenario, time, estimand) cross-replicate medians of the
    posterior median and interval bounds, for plotting."""
    rows = []
    for key, _, summaries, defined in _estimand_groups(results):
        medians = [s.median for s in summaries if s.median is not None]
        los = [s.lo95 for s in summaries if s.lo95 is not None]
        his = [s.hi95 for s in summaries if s.hi95 is not None]
        truths = [bc.truth for bc in defined]
        frac_undef = (
            float(np.mean([s.frac_undefined for s in summaries])) if summaries else math.nan
        )
        rows.append(
            {
                **key,
                "truth": float(np.median(truths)) if truths else None,
                "median": float(np.median(medians)) if medians else None,
                "lo95": float(np.median(los)) if los else None,
                "hi95": float(np.median(his)) if his else None,
                "frac_undefined": frac_undef,
            }
        )
    return rows


def metrics_rows(results: StudyResults) -> list[dict]:
    """Raw per-(scenario, replicate, time, estimand) metric records.

    The selection-biased observed-survivor contrast and the rank-statistic
    reference appear as extra flagged estimand rows carrying point values
    only."""
    rows = []
    for cell in results.cells:
        for ct in cell.times:
            key = {"scenario": cell.scenario, "replicate": cell.replicate, "time": ct.time}
            tail = {"death_pct": ct.death_pct, "mae": ct.mae, "ibs": cell.ibs, "cdauc": cell.cdauc}
            for name in ESTIMANDS:
                bc = ct.bias_coverage.get(name)
                summ = ct.summaries.get(name)
                rows.append({
                    **key,
                    "estimand": name,
                    "truth": getattr(bc, "truth", None),
                    "median": getattr(summ, "median", None),
                    "lo95": getattr(summ, "lo95", None),
                    "hi95": getattr(summ, "hi95", None),
                    "bias": getattr(bc, "bias", None),
                    "covered": getattr(bc, "covered", None),
                    **tail,
                })
            for label, value in (
                ("naive_reference_biased", ct.naive),
                ("wmw_reference", ct.wmw),
            ):
                rows.append({
                    **key, "estimand": label, "truth": None, "median": value, "lo95": None,
                    "hi95": None, "bias": None, "covered": None, **tail,
                })
    return rows


def write_rows(path: Path, header: tuple[str, ...], rows: list[tuple]) -> None:
    """CSV of ``rows`` under ``header``; an empty file when there are no rows."""
    if not rows:
        path.write_text("")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_report(results: StudyResults, out_dir) -> list[Path]:
    """Write coverage, bias, figure-data, and raw metrics CSVs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, rows in (
        ("coverage_table.csv", coverage_rows(results)),
        ("bias_table.csv", bias_rows(results)),
        ("figure_data.csv", figure_rows(results)),
        ("metrics.csv", metrics_rows(results)),
    ):
        path = out_dir / name
        header = tuple(rows[0]) if rows else ()
        write_rows(path, header, [tuple(row[k] if isinstance(row[k], str) else fmt(row[k])
                                        for k in header) for row in rows])
        written.append(path)
    return written


def build_config(doc: dict) -> StudyConfig:
    """Build a StudyConfig from a plain JSON document.

    ``scenarios`` may list library names or inline parameter objects; ``n``
    sets every scenario's size; other keys override defaults, and a key
    that names no field raises ``ValueError``. So do ``scenarios`` other
    than a list of names and objects with a ``name``, a non-integer ``n``,
    ``mcmc.seed`` (``fit_posteriors`` derives every fit's seed from the
    master seed) and a document or ``mcmc`` that is not a JSON object.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"StudyConfig: expected an object, got {doc!r}")
    mcmc = doc.get("mcmc")
    if isinstance(mcmc, dict) and "seed" in mcmc:
        raise ValueError("mcmc.seed is not read: fit seeds derive from master_seed "
                         "(tbd fit: --seed)")
    try:
        n = decode(int, doc["n"]) if "n" in doc else None
    except ValueError as exc:
        raise ValueError(f"StudyConfig.n: {exc}") from None
    library = load_scenarios()
    items = doc.get("scenarios", list(library))
    if not isinstance(items, list):
        raise ValueError(f"StudyConfig.scenarios: expected a list, got {items!r}")
    scenarios = []
    for item in items:
        if isinstance(item, str):
            scenario = get_scenario(item, library)
        elif isinstance(item, dict) and "name" in item:
            scenario = _params_from_dict(item["name"], item)
        else:
            raise ValueError("StudyConfig.scenarios: expected a library name or an object "
                             f"with a 'name', got {item!r}")
        scenarios.append(scenario if n is None else scenario.with_updates(n=n))
    rest = {k: v for k, v in doc.items() if k != "n"}
    return replace(decode(StudyConfig, {**rest, "scenarios": []}), scenarios=tuple(scenarios))
