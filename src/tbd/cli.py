"""Command-line interface: simulate | fit | estimate | study | report."""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from itertools import repeat
from pathlib import Path

import click
import numpy as np

from . import estimators, longitudinal, science, simulate, study, survival
from .codec import encode


@click.group()
def main() -> None:
    """Treatment effects for longitudinal outcomes truncated by death."""


TRUTH_COLUMNS = ("time", "sace", "pc", "sim", "rmst", "death_frac_control",
                 "death_frac_treated", "n_ll")


@main.command()
@click.option("--scenario", required=True, help="Scenario name from the built-in library, or a JSON file of scenario parameters.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="Output directory.")
@click.option("--n", type=int, default=None, help="Override the scenario sample size.")
def simulate_cmd(scenario: str, seed: int, out: str, n: int | None) -> None:
    """Generate a science table and its observed dataset.

    A scenario file holding several scenarios is read for the one named by
    the file's stem."""
    try:
        if Path(scenario).exists():
            lib = simulate.load_scenarios(scenario)
            params = (next(iter(lib.values())) if len(lib) == 1
                      else simulate.get_scenario(Path(scenario).stem, lib))
        else:
            params = simulate.get_scenario(scenario)
        if n is not None:
            params = params.with_updates(n=n)
    except ValueError as exc:
        raise click.ClickException(f"scenario {scenario} refused: {exc}") from exc
    table = simulate.simulate_science_table(params, simulate.child_seed(seed, params.name, "sim"))
    data = simulate.observe(table)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    science.dump_json(science.science_to_json(table), out_dir / "science.json")
    science.dump_json(science.observed_to_json(data), out_dir / "observed.json")
    rows = []
    for t in params.visit_times:
        tr = simulate.true_estimands(table, t)
        rows.append((t, _cell(tr.sace), _cell(tr.pc), _cell(tr.sim), _cell(tr.rmst),
                     _cell(tr.death_frac_control), _cell(tr.death_frac_treated), tr.n_ll))
    study.write_rows(out_dir / "truths.csv", TRUTH_COLUMNS, rows)
    click.echo(f"wrote science.json, observed.json, truths.csv to {out_dir}")


def _cell(v) -> str:
    return study.fmt(v, ".6g")


main.add_command(simulate_cmd, name="simulate")


@main.command()
@click.option("--data", "data_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True, help="Output JSON for the fitted posteriors.")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON with optional mcmc / survival_priors / long_priors / grid_cutpoints.")
@click.option("--seed", type=int, default=0, show_default=True)
def fit(data_path: str, out: str, config_path: str | None, seed: int) -> None:
    """Fit the survival model and the per-visit longitudinal models.

    The fits are a study cell's (``study.fit_posteriors``), seeded from
    ``--seed`` and each retried once with doubled samples; a fit still
    flagged after that is written with a warning on stderr. A visit whose
    longitudinal model cannot be fitted (an arm with nobody alive and
    measured there) is reported on stderr and left out of the output;
    ``tbd estimate`` covers the visits that are present."""
    cfg = _load_config(config_path, fit=True)
    data = _load_data(data_path)
    if not data.visit_times:
        raise click.ClickException("dataset must carry visit_times")
    fits = study.fit_posteriors(data, replace(cfg, master_seed=seed))
    if fits.survival_failure is not None:
        click.echo(f"warning: survival fit: {fits.survival_failure}", err=True)
    for t, reason in fits.failures.items():
        if t in fits.longitudinal:
            click.echo(f"warning: longitudinal fit at t={t}: {reason}", err=True)
        else:
            click.echo(f"warning: no longitudinal fit at t={t}, left out: {reason}", err=True)
    science.dump_json(encode({"survival": fits.survival, "longitudinal": fits.longitudinal}), out)
    click.echo(f"wrote posteriors to {out}")


ESTIMATE_COLUMNS = ("scenario", "replicate", "time", "estimand", "draw_index", "value",
                    "is_infinite")
SUMMARY_COLUMNS = ("estimand", "time", "median", "lo95", "hi95", "frac_undefined")


@main.command()
@click.option("--data", "data_path", type=click.Path(exists=True), required=True)
@click.option("--fits", "fits_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True, help="Output directory for estimate CSVs.")
@click.option("--draws", type=int, default=100, show_default=True, help="Paired posterior draws per estimand.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Has no effect: the estimates depend only on the data and the fits.")
@click.option("--label", default="dataset", show_default=True, help="Scenario label for the CSV rows.")
def estimate(data_path: str, fits_path: str, out: str, draws: int, seed: int, label: str) -> None:
    """Compute per-draw estimand values and their posterior summaries.

    The estimates depend only on the data, the fits and --draws; --seed
    has no effect."""
    data = _load_data(data_path)
    fits = science.load_json(fits_path)
    try:
        spost = survival.SurvivalPosterior.from_json(fits["survival"])
        lposts = {key: longitudinal.LongitudinalPosterior.from_json(ldoc)
                  for key, ldoc in fits["longitudinal"].items()}
    except (KeyError, ValueError) as exc:
        raise click.ClickException(f"posteriors {fits_path} refused: {exc}; rerun `tbd fit`") from exc
    pool = min(post.n_draws for post in (spost, *lposts.values()))
    if not 1 <= draws <= pool:
        raise click.ClickException(
            f"--draws {draws} refused: the fits hold {pool} draws to pair; use 1..{pool}")
    width = data.columns.x.shape[1]
    fitted = {spost.alpha0.shape[-1], spost.alpha1.shape[-1],
              *(lp.beta1.shape[-1] for lp in lposts.values())}
    if fitted != {width}:
        raise click.ClickException(f"posteriors {fits_path} refused: fitted on {max(fitted - {width})} "
                                   f"covariates, data {data_path} has {width}; rerun `tbd fit`")
    if not spost.converged:
        click.echo("warning: survival fit flagged by convergence diagnostics", err=True)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    est_rows = []
    summary_rows = []
    for key, lpost in lposts.items():
        t = float(key)
        if not lpost.converged:
            click.echo(f"warning: longitudinal fit at t={t} flagged by diagnostics", err=True)
        result = estimators.estimand_draws(spost, lpost, data, t, draws)
        for name, summ in result.summaries().items():
            values = result.values(name)
            est_rows.extend(zip(
                repeat(label), repeat(0), repeat(t), repeat(name), range(len(values)),
                study.fmt_floats(values.tolist(), ".6g"), np.isinf(values).astype(int).tolist(),
            ))
            summary_rows.append((name, t, _cell(summ.median), _cell(summ.lo95),
                                 _cell(summ.hi95), study.fmt(summ.frac_undefined)))
        for reference, value in (("naive_reference_biased", result.naive),
                                 ("wmw_reference", result.wmw)):
            summary_rows.append((reference, t, _cell(value), "-", "-", "-"))
    study.write_rows(out_dir / "estimates.csv", ESTIMATE_COLUMNS, est_rows)
    study.write_rows(out_dir / "summary.csv", SUMMARY_COLUMNS, summary_rows)
    click.echo(f"wrote estimates.csv and summary.csv to {out_dir}")


@main.command(name="study")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="Study JSON; defaults to all four library scenarios at desk scale.")
@click.option("--out", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None, help="Override the master seed.")
@click.option("--workers", type=int, default=1, show_default=True, help="Worker processes.")
def study_cmd(config_path: str | None, out: str, seed: int | None, workers: int) -> None:
    """Run the scenario x replicate study and write report CSVs."""
    cfg = _load_config(config_path)
    if seed is not None:
        cfg = replace(cfg, master_seed=seed)
    results = study.run_study(cfg, out, workers=workers)
    study.emit_report(results, out)
    n_failed = results.n_failed
    click.echo(
        f"study complete: {len(results.cells)} cells, {n_failed} failures; reports in {out}"
    )
    if n_failed:
        sys.exit(1)


STUDY_ONLY_KEYS = ("master_seed", "k_draws", "replicates", "scenarios", "n")


def _load_config(path: str | None, fit: bool = False) -> study.StudyConfig:
    """``study.build_config`` of a JSON file (or ``{}``); a refused one is a one-line error.
    For ``tbd fit`` (``fit``) it holds no scenarios and ``STUDY_ONLY_KEYS`` are refused."""
    try:
        doc = json.loads(Path(path).read_text()) if path else {}
        if fit and isinstance(doc, dict):  # build_config refuses any other document
            if found := sorted(set(doc).intersection(STUDY_ONLY_KEYS)):
                raise ValueError(f"keys {found} are study-only; tbd fit seeds from --seed")
            doc = {**doc, "scenarios": []}
        return study.build_config(doc)
    except (KeyError, ValueError) as exc:
        raise click.ClickException(f"config {path} refused: {exc}") from exc


def _load_data(path: str) -> science.ObservedDataset:
    """The observed dataset in ``path``; a malformed one is a one-line error."""
    try:
        return science.observed_from_json(science.load_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise click.ClickException(f"data {path} refused: {reason}") from exc


@main.command()
@click.option("--results", "results_dir", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def report(results_dir: str, out: str) -> None:
    """Regenerate report CSVs from a study output directory."""
    loaded = study.load_cells(results_dir)
    if not loaded:
        raise click.ClickException(f"no cells found under {Path(results_dir) / 'cells'}")
    hashes = sorted({cell_hash for cell_hash, _ in loaded})
    if len(hashes) > 1:
        raise click.ClickException(
            f"cells under {results_dir} come from different study configs "
            f"(config_hash {', '.join(hashes)}); report one study at a time"
        )
    results = study.StudyResults(config_hash=hashes[0], cells=[cell for _, cell in loaded])
    written = study.emit_report(results, out)
    click.echo("wrote " + ", ".join(str(p) for p in written))


if __name__ == "__main__":
    main()
