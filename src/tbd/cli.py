"""Command-line interface: simulate | fit | estimate | study | report."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import click
import numpy as np

from . import longitudinal, science, simulate, study, survival
from .codec import decode, encode


class _Commands(click.Group):
    """The commands; an output file that cannot be written ends any of them
    in the one-line error ``output <path> refused: <reason>``."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except science.OutputRefused as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Commands)
def main() -> None:
    """Treatment effects for longitudinal outcomes truncated by death."""


TRUTH_COLUMNS = ("time", "sace", "pc", "sim", "rmst", "death_frac_control",
                 "death_frac_treated", "n_ll")


@contextmanager
def _refusing(what: str, path, advice: str = ""):
    """Turn a file that cannot be read, or whose document is refused, into
    the one-line error ``<what> <path> refused: <reason>``."""
    try:
        yield
    except (OSError, KeyError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise click.ClickException(f"{what} {path} refused: {reason}{advice}") from exc


@dataclass
class PosteriorFile:
    """``tbd fit``'s output; each posterior is decoded by its own ``from_json``."""

    survival: object
    longitudinal: dict[float, object]


@main.command()
@click.option("--scenario", required=True, help="Scenario name from the built-in library, or a JSON file of scenario parameters.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="Output directory.")
@click.option("--n", type=int, default=None, help="Override the scenario sample size.")
def simulate_cmd(scenario: str, seed: int, out: str, n: int | None) -> None:
    """Generate a science table and its observed dataset.

    A scenario file holding several scenarios is read for the one named by
    the file's stem."""
    with _refusing("scenario", scenario):
        if Path(scenario).exists():
            lib = simulate.load_scenarios(scenario)
            params = (next(iter(lib.values())) if len(lib) == 1
                      else simulate.get_scenario(Path(scenario).stem, lib))
        else:
            params = simulate.get_scenario(scenario)
        if n is not None:
            params = params.with_updates(n=n)
        table = simulate.simulate_science_table(params, simulate.child_seed(seed, params.name, "sim"))
    data = simulate.observe(table)
    out_dir = Path(out)
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
@click.option("--data", "data_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="Output JSON for the fitted posteriors; its directory is created.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON with optional mcmc / survival_priors / long_priors.")
@click.option("--seed", type=int, default=0, show_default=True)
def fit(data_path: str, out: str, config_path: str | None, seed: int) -> None:
    """Fit the survival model and the per-visit longitudinal models.

    The fits are a study cell's (``study.fit_posteriors``), seeded from
    ``--seed`` and each retried once with doubled samples; a fit still
    flagged after that is written with a warning on stderr. A visit whose
    longitudinal model cannot be fitted (an arm with nobody alive and
    measured there, or a sigma posterior at an end of its grid) is reported
    on stderr and left out; ``tbd estimate`` covers the visits present."""
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
    science.dump_json(encode(PosteriorFile(fits.survival, fits.longitudinal)), out)
    click.echo(f"wrote posteriors to {out}")


ESTIMATE_COLUMNS = ("scenario", "replicate", "time", "estimand", "draw_index", "value",
                    "is_infinite")
SUMMARY_COLUMNS = ("estimand", "time", "median", "lo95", "hi95", "frac_undefined")


@main.command()
@click.option("--data", "data_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--fits", "fits_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", type=click.Path(), required=True, help="Output directory for estimate CSVs.")
@click.option("--draws", type=int, default=100, show_default=True, help="Paired posterior draws per estimand.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Has no effect: the estimates depend only on the data and the fits.")
@click.option("--label", default="dataset", show_default=True, help="Scenario label for the CSV rows.")
def estimate(data_path: str, fits_path: str, out: str, draws: int, seed: int, label: str) -> None:
    """Compute per-draw estimand values and their posterior summaries."""
    data = _load_data(data_path)
    with _refusing("posteriors", fits_path, "; rerun `tbd fit`"):
        fits = decode(PosteriorFile, science.load_json(fits_path))
        spost = survival.SurvivalPosterior.from_json(fits.survival)
        lposts = {t: longitudinal.LongitudinalPosterior.from_json(ldoc)
                  for t, ldoc in fits.longitudinal.items()}
        width = data.x.shape[1]
        fitted = {spost.alpha0.shape[-1], spost.alpha1.shape[-1],
                  *(lp.beta1.shape[-1] for lp in lposts.values())}
        if fitted != {width}:
            raise ValueError(f"fitted on {max(fitted - {width})} covariates, data {data_path} "
                             f"has {width}")
        if strays := [t for t in lposts if t not in data.visit_times]:
            raise ValueError(f"fitted at months {strays}, not visits of data {data_path} "
                             f"({list(data.visit_times)})")
    pool = min(post.n_draws for post in (spost, *lposts.values()))
    if not 1 <= draws <= pool:
        raise click.ClickException(
            f"--draws {draws} refused: the fits hold {pool} draws to pair; use 1..{pool}")
    if not spost.converged:
        click.echo("warning: survival fit flagged by convergence diagnostics", err=True)
    for t, lpost in sorted(lposts.items()):
        if not lpost.converged:
            click.echo(f"warning: longitudinal fit at t={t} flagged by diagnostics", err=True)
    out_dir = Path(out)
    est_lines = []
    summary_rows = []
    for visit in study.estimate_visits(spost, lposts, data, draws):
        t = visit.time
        for name, values in visit.draws.items():
            summ = visit.summaries[name]
            est_lines.append(_draw_rows(study.csv_line((label, 0, t, name)), values))
            summary_rows.append((name, t, _cell(summ.median), _cell(summ.lo95),
                                 _cell(summ.hi95), study.fmt(summ.frac_undefined)))
        for reference, value in (("naive_reference_biased", visit.naive),
                                 ("wmw_reference", visit.wmw)):
            summary_rows.append((reference, t, _cell(value), "-", "-", "-"))
    study.write_lines(out_dir / "estimates.csv", ESTIMATE_COLUMNS, est_lines)
    study.write_rows(out_dir / "summary.csv", SUMMARY_COLUMNS, summary_rows)
    click.echo(f"wrote estimates.csv and summary.csv to {out_dir}")


def _draw_rows(prefix: str, values: np.ndarray) -> str:
    """The ``estimates.csv`` rows of one series of draws, joined by line
    ends: the leading fields ``prefix`` (through csv, which quotes a label
    that needs it), then the draw index, the value as ``format(v, ".6g")``,
    "-" for NaN, and 1 where it is infinite; those three never need quoting.
    One ``%`` operation renders the series: ``"%.6g" % v`` is
    ``format(v, ".6g")``, and a NaN row takes its value with ``%.0s``, which
    prints nothing."""
    prefix = prefix.replace("%", "%%")
    rows = [prefix + ",%d,%.6g,%d"] * len(values)
    for i in np.flatnonzero(np.isnan(values)).tolist():
        rows[i] = prefix + ",%d,-%.0s,%d"
    fields = [None] * (3 * len(values))
    fields[0::3], fields[1::3] = range(len(values)), values.tolist()
    fields[2::3] = np.isinf(values).astype(int).tolist()
    return "\r\n".join(rows) % tuple(fields)


@main.command(name="study")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Study JSON; defaults to all four library scenarios at desk scale.")
@click.option("--out", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None, help="Override the master seed.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker processes.")
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
    with _refusing("config", path):
        doc = science.load_json(path) if path else {}
        if fit and isinstance(doc, dict):  # build_config refuses any other document
            if found := sorted(set(doc).intersection(STUDY_ONLY_KEYS)):
                raise ValueError(f"keys {found} are study-only; tbd fit seeds from --seed")
            doc = {**doc, "scenarios": []}
        return study.build_config(doc)


def _load_data(path: str) -> science.ObservedDataset:
    """The observed dataset in ``path``; a malformed one, or one with a
    patient alive at a visit but without a value there, is a one-line error."""
    with _refusing("data", path):
        data = science.observed_from_json(science.load_json(path))
        for t in data.visit_times:
            data.check_measured(t)
    return data


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
