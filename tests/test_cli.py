"""End-to-end command-line workflows on tiny configurations."""

import csv
import json
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from click.testing import CliRunner

from tbd import cli, science, simulate, study
from tbd.cli import main
from tbd.study import _seed_int, build_config
from tbd.survival import fit_survival

FAST_MCMC = {"chains": 2, "samples": 200, "min_ess": 5, "rhat_threshold": 2.0}


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def sim_dir(runner, tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    result = runner.invoke(
        main, ["simulate", "--scenario", "no_effect", "--seed", "3", "--out", str(out), "--n", "40"]
    )
    assert result.exit_code == 0, result.output
    return out


def test_simulate_outputs(sim_dir):
    science = json.loads((sim_dir / "science.json").read_text())
    observed = json.loads((sim_dir / "observed.json").read_text())
    assert len(science["patients"]) == 40
    assert len(observed["patients"]) == 40
    assert {"t0", "t1", "y0", "y1"} <= set(science["patients"][0])
    truths = (sim_dir / "truths.csv").read_text().splitlines()
    assert truths[0].startswith("time,sace,pc,sim,rmst")
    assert len(truths) == 6  # header + five visit times


def test_simulate_unknown_scenario_fails(runner, tmp_path):
    result = runner.invoke(main, ["simulate", "--scenario", "nope", "--out", str(tmp_path)])
    assert result.exit_code != 0


MIXED = json.loads(resources.files("tbd").joinpath("scenarios.json").read_text())["mixed"]


@pytest.mark.parametrize("text, extra, refused", [
    (json.dumps({"a": MIXED, "b": MIXED}), [], "unknown scenario 'several'; known: ['a', 'b']"),
    (json.dumps({"a": {**MIXED, "n_patients": 5}}), [],
     "scenario 'a': ScenarioParams: unknown keys ['n_patients']"),
    ('{"a": ', [], "Expecting value: line 1 column 7 (char 6)"),
    (json.dumps({"a": MIXED}), ["--n", "0"], "n must be positive"),
    ("[1]", [], "expected an object of named scenarios, got [1]"),
    (json.dumps({"a": 3}), [], "scenario 'a': expected an object, got 3"),
    *((json.dumps({"a": {**MIXED, "visit_times": visits}}), [],
       f"scenario 'a': visit times must be finite, strictly increasing and within (0, 15.0], "
       f"got {shown}")
      for visits, shown in (([3, 3, 6], "[3.0, 3.0, 6.0]"), ([6, 3], "[6.0, 3.0]"),
                            (["nan", 3], "[nan, 3.0]"), ([0, 3], "[0.0, 3.0]"))),
], ids=["several-none-by-stem", "unknown-key", "malformed-json", "n-zero", "file-not-object",
        "scenario-not-object", "repeated-visit", "unsorted-visits", "nan-visit", "zero-visit"])
def test_refused_scenario_is_a_one_line_error(runner, tmp_path, text, extra, refused):
    scenario = tmp_path / "several.json"
    scenario.write_text(text)
    out = tmp_path / "sim"
    result = runner.invoke(main, ["simulate", "--scenario", str(scenario), "--out", str(out), *extra])
    assert result.exit_code == 1
    assert result.output.strip().splitlines() == [f"Error: scenario {scenario} refused: {refused}"]
    assert not out.exists()


@pytest.fixture(scope="module")
def fits_path(runner, sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fits") / "fits.json"
    cfg = tmp_path_factory.mktemp("cfg") / "config.json"
    cfg.write_text(json.dumps({"mcmc": FAST_MCMC}))
    result = runner.invoke(
        main,
        ["fit", "--data", str(sim_dir / "observed.json"), "--out", str(out),
         "--config", str(cfg), "--seed", "11"],
    )
    assert result.exit_code == 0, result.output
    return out


def test_fit_output_schema(fits_path):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    doc = json.loads(fits_path.read_text(), parse_constant=refuse)
    assert set(doc) == {"survival", "longitudinal"}
    surv = doc["survival"]
    assert {"grid", "lambda0", "lambda1", "alpha0", "alpha1", "diagnostics", "converged"} <= set(surv)
    n_draws = FAST_MCMC["chains"] * FAST_MCMC["samples"]
    assert np.shape(surv["lambda0"]) == (n_draws, len(surv["grid"]["cutpoints"]) - 1)
    assert np.shape(surv["alpha1"]) == (n_draws, 1)
    assert set(doc["longitudinal"]) == {"3", "6", "9", "12", "15"}
    long9 = doc["longitudinal"]["9"]
    assert {"t", "beta0", "beta1", "sigma", "diagnostics", "converged"} <= set(long9)
    assert np.shape(long9["beta0"]) == (n_draws, 2)
    assert np.shape(long9["beta1"]) == (n_draws, 2, 1)
    assert np.shape(long9["sigma"]) == (n_draws,)


def test_written_json_is_one_line_and_parses_as_before(sim_dir, fits_path):
    # the files drop the one-key-per-line layout, not any content: each
    # parses to the document an indented dump of the same data parses to
    table = simulate.simulate_science_table(
        simulate.get_scenario("no_effect").with_updates(n=40),
        simulate.child_seed(3, "no_effect", "sim"),
    )
    data = simulate.observe(table)
    cfg = build_config({"mcmc": FAST_MCMC, "scenarios": []})
    spost = fit_survival(data, cfg.grid_for(data.follow_up, data.visit_times),
                         cfg.survival_priors, replace(cfg.mcmc, seed=_seed_int(11, "surv")))
    expected = {
        sim_dir / "science.json": science.science_to_json(table),
        sim_dir / "observed.json": science.observed_to_json(data),
        fits_path: spost.to_json(),
    }
    for path, doc in expected.items():
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        parsed = json.loads(text)
        if path == fits_path:
            parsed = parsed["survival"]
        assert parsed == json.loads(json.dumps(doc, sort_keys=True, indent=1))


def test_fit_retries_like_a_study_cell(runner, sim_dir, tmp_path):
    # 2 x 200 draws cannot reach an ESS of 500; the retry's 2 x 400 can
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mcmc": {"chains": 2, "samples": 200, "min_ess": 500}}))
    out = tmp_path / "fits.json"
    result = runner.invoke(main, ["fit", "--data", str(sim_dir / "observed.json"),
                                  "--out", str(out), "--config", str(cfg), "--seed", "11"])
    assert result.exit_code == 0, result.output
    assert "warning" not in result.output
    doc = json.loads(out.read_text())
    assert len(doc["survival"]["lambda0"]) == 800
    assert {len(ldoc["sigma"]) for ldoc in doc["longitudinal"].values()} == {800}


def test_estimate_outputs(runner, sim_dir, fits_path, tmp_path):
    result = runner.invoke(
        main,
        ["estimate", "--data", str(sim_dir / "observed.json"), "--fits", str(fits_path),
         "--out", str(tmp_path), "--draws", "20", "--seed", "1"],
    )
    assert result.exit_code == 0, result.output
    est = (tmp_path / "estimates.csv").read_text().splitlines()
    assert est[0] == "scenario,replicate,time,estimand,draw_index,value,is_infinite"
    # 5 times x 4 estimands x 20 draws
    assert len(est) == 1 + 5 * 4 * 20
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "estimand,time,median,lo95,hi95,frac_undefined"
    assert any("naive_reference_biased" in line for line in summary)


def test_estimate_seed_has_no_effect(runner, sim_dir, fits_path, tmp_path):
    for seed in ("1", "999"):
        result = runner.invoke(main, ["estimate", "--data", str(sim_dir / "observed.json"),
                                      "--fits", str(fits_path), "--out", str(tmp_path / seed),
                                      "--draws", "20", "--seed", seed])
        assert result.exit_code == 0, result.output
    for csv_name in ("estimates.csv", "summary.csv"):
        assert (tmp_path / "1" / csv_name).read_bytes() == (tmp_path / "999" / csv_name).read_bytes()


def test_estimate_warns_about_unconverged_fits(runner, sim_dir, fits_path, tmp_path):
    doc = json.loads(fits_path.read_text())
    assert doc["survival"]["converged"]
    assert all(ldoc["converged"] for ldoc in doc["longitudinal"].values())
    doc["longitudinal"]["9"]["converged"] = False
    flagged = tmp_path / "flagged.json"
    flagged.write_text(json.dumps(doc))
    outputs = {}
    for name, path in (("clean", fits_path), ("flagged", flagged)):
        result = runner.invoke(main, ["estimate", "--data", str(sim_dir / "observed.json"),
                                      "--fits", str(path), "--out", str(tmp_path / name),
                                      "--draws", "5"])
        assert result.exit_code == 0, result.output
        outputs[name] = [line for line in result.output.splitlines() if "warning" in line]
    assert outputs == {"clean": [],
                       "flagged": ["warning: longitudinal fit at t=9.0 flagged by diagnostics"]}
    for csv_name in ("estimates.csv", "summary.csv"):
        assert (tmp_path / "flagged" / csv_name).read_bytes() == (
            tmp_path / "clean" / csv_name
        ).read_bytes()


def test_estimate_refuses_per_draw_fits_file(runner, sim_dir, tmp_path):
    # the layout tbd fit wrote before posteriors became columnar
    old = {"survival": {"grid": [0.0, 15.0], "converged": True, "diagnostics": {},
                        "draws": [{"lambda0": [0.1], "lambda1": [0.1],
                                   "alpha0": [0.0], "alpha1": [0.0]}]},
           "longitudinal": {}}
    fits = tmp_path / "fits.json"
    fits.write_text(json.dumps(old))
    result = runner.invoke(main, ["estimate", "--data", str(sim_dir / "observed.json"),
                                  "--fits", str(fits), "--out", str(tmp_path / "est")])
    assert result.exit_code == 1
    assert len(result.output.strip().splitlines()) == 1
    assert "unknown keys ['draws']" in result.output and "rerun `tbd fit`" in result.output


@pytest.mark.parametrize("doc, refused", [
    ({"replicate": 3}, "StudyConfig: unknown keys ['replicate']"),
    ({"mcmc": {"warmpu": 3}}, "McmcConfig: unknown keys ['warmpu']"),
    ({"replicates": None}, "StudyConfig.replicates: expected an integer, got None"),
    ({"scenarios": 3}, "StudyConfig.scenarios: expected a list, got 3"),
    ({"scenarios": [3]},
     "StudyConfig.scenarios: expected a library name or an object with a 'name', got 3"),
    ({"scenarios": [{"th0_0": 30.0}]}, "StudyConfig.scenarios: expected a library name or an "
                                       "object with a 'name', got {'th0_0': 30.0}"),
    ({"n": [2]}, "StudyConfig.n: expected an integer, got [2]"),
    ({"scenarios": ["no_effect"], "replicates": 1, "k_draws": 0},
     "k_draws must be in 1..4000 (mcmc.chains * mcmc.samples), got 0"),
    ({"scenarios": ["no_effect"], "replicates": 1, "mcmc": {"chains": 2, "samples": 50},
      "k_draws": 101}, "k_draws must be in 1..100 (mcmc.chains * mcmc.samples), got 101"),
], ids=["top-level", "mcmc", "null-value", "scenarios-not-list", "scenario-not-name",
        "inline-scenario-without-name", "n-not-integer", "k-draws-zero", "k-draws-over-pool"])
def test_refused_study_config_is_a_one_line_error(runner, tmp_path, doc, refused):
    cfg = tmp_path / "study.json"
    # no scenarios: were the key ignored, the study would finish at once with no cells
    cfg.write_text(json.dumps({"scenarios": [], **doc}))
    result = runner.invoke(main, ["study", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert result.output.strip().splitlines() == [f"Error: config {cfg} refused: {refused}"]
    assert not (tmp_path / "o").exists()


def test_estimate_refuses_draws_outside_the_pool(runner, sim_dir, fits_path, tmp_path):
    doc = json.loads(fits_path.read_text())
    pool = min(len(doc["survival"]["lambda0"]),
               *(len(ldoc["sigma"]) for ldoc in doc["longitudinal"].values()))
    for draws in (0, -3, pool + 1):
        out = tmp_path / str(draws)
        result = runner.invoke(main, ["estimate", "--data", str(sim_dir / "observed.json"),
                                      "--fits", str(fits_path), "--out", str(out),
                                      "--draws", str(draws)])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            f"Error: --draws {draws} refused: the fits hold {pool} draws to pair; use 1..{pool}"
        ]
        assert not out.exists()
    result = runner.invoke(main, ["estimate", "--data", str(sim_dir / "observed.json"),
                                  "--fits", str(fits_path), "--out", str(tmp_path / "all"),
                                  "--draws", str(pool)])
    assert result.exit_code == 0, result.output


def _widened(values):
    """Nested lists of numbers with a 0.0 appended to each innermost list."""
    return [*values, 0.0] if not isinstance(values[0], list) else [_widened(v) for v in values]


@pytest.mark.parametrize("widen", ["data", "fits", "one-visit"])
def test_estimate_refuses_fits_of_another_covariate_width(runner, sim_dir, fits_path, tmp_path,
                                                          widen):
    data, fits = tmp_path / "observed.json", tmp_path / "fits.json"
    data_doc = json.loads((sim_dir / "observed.json").read_text())
    fits_doc = json.loads(fits_path.read_text())
    if widen == "data":
        for patient in data_doc["patients"]:
            patient["x"] = _widened(patient["x"])
    else:
        visits = list(fits_doc["longitudinal"].values())
        if widen == "fits":
            for key in ("alpha0", "alpha1"):
                fits_doc["survival"][key] = _widened(fits_doc["survival"][key])
        for ldoc in visits[-1:] if widen == "one-visit" else visits:
            ldoc["beta1"] = _widened(ldoc["beta1"])
    data.write_text(json.dumps(data_doc))
    fits.write_text(json.dumps(fits_doc))
    out = tmp_path / "out"
    result = runner.invoke(main, ["estimate", "--data", str(data), "--fits", str(fits),
                                  "--out", str(out), "--draws", "5"])
    fitted, given = (1, 2) if widen == "data" else (2, 1)
    assert result.exit_code == 1
    assert result.output.strip().splitlines() == [
        f"Error: posteriors {fits} refused: fitted on {fitted} covariates, data {data} has "
        f"{given}; rerun `tbd fit`"
    ]
    assert not out.exists()


NOT_OBJECT_CONFIGS = pytest.mark.parametrize("doc, refused", [
    ([1], "StudyConfig: expected an object, got [1]"),
    ({"mcmc": 3}, "StudyConfig.mcmc: McmcConfig: expected an object, got 3"),
], ids=["config-list", "mcmc-int"])


@NOT_OBJECT_CONFIGS
def test_study_config_not_an_object_is_a_one_line_error(runner, tmp_path, doc, refused):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(doc))
    result = runner.invoke(main, ["study", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert result.output.strip().splitlines() == [f"Error: config {cfg} refused: {refused}"]
    assert not (tmp_path / "o").exists()


@NOT_OBJECT_CONFIGS
def test_fit_config_not_an_object_is_a_one_line_error(runner, sim_dir, tmp_path, doc, refused):
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "fits.json"
    result = runner.invoke(main, ["fit", "--data", str(sim_dir / "observed.json"),
                                  "--out", str(out), "--config", str(cfg)])
    assert result.exit_code == 1
    assert result.output.strip().splitlines() == [f"Error: config {cfg} refused: {refused}"]
    assert not out.exists()


@pytest.mark.parametrize("doc, refused", [
    ({"master_seed": 77, "k_draws": 3}, "['k_draws', 'master_seed']"),
    ({"replicates": 9}, "['replicates']"),
    ({"scenarios": ["mixed"], "n": 50}, "['n', 'scenarios']"),
], ids=["seed-draws", "replicates", "scenarios-n"])
def test_refused_fit_config_is_a_one_line_error(runner, sim_dir, tmp_path, doc, refused):
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "fits.json"
    result = runner.invoke(main, ["fit", "--data", str(sim_dir / "observed.json"),
                                  "--out", str(out), "--config", str(cfg)])
    assert result.exit_code == 1
    assert result.output.strip().splitlines() == [
        f"Error: config {cfg} refused: keys {refused} are study-only; tbd fit seeds from --seed"
    ]
    assert not out.exists()


def _death(t_obs):
    """An observed-data patient record: a control-arm death at ``t_obs``."""
    return {"id": 0, "x": [0.1], "w": 0, "t_obs": t_obs, "d_obs": 1, "y_obs": {}}


@pytest.mark.parametrize("doc, refused", [
    ({"patients": []}, "missing key 'follow_up_months'"),
    ({"follow_up_months": 15.0, "patients": [
        {"id": 0, "x": [0.1], "w": 2, "t_obs": 15.0, "d_obs": 0, "y_obs": {}}]},
     "treatment w must be 0 or 1, got 2"),
    ({"follow_up_months": 15.0, "patients": [{"id": 0, "x": 0.1}]},
     "ObservedPatient.x: 'float' object is not iterable"),
    ({"follow_up_months": 15.0, "patients": [
        {"id": 0, "x": [0.1], "w": 0, "t_obs": 15.0, "d_obs": 0, "y_obs": {}, "y_ob": {}}]},
     "ObservedPatient: unknown keys ['y_ob']"),
    ({"follow_up_months": 15.0, "patients": [
        {"id": 0, "x": [0.1], "w": 0, "t_obs": 12.0, "d_obs": 0, "y_obs": {}, "follow_up": 12.0}]},
     "ObservedPatient: unknown keys ['follow_up']"),
    ({"follow_up_months": 15.0, "visit_time": [3], "patients": []},
     "ObservedDataset: unknown keys ['visit_time']"),
    ({"follow_up_months": 15.0, "follow_up": 12.0, "patients": []},
     "ObservedDataset: unknown keys ['follow_up']"),
    ({"follow_up_months": 15.0, "patients": [_death(-5.0)]},
     "t_obs must be positive and finite, got -5.0"),
    ({"follow_up_months": 15.0, "patients": [_death("nan")]},
     "t_obs must be positive and finite, got nan"),
    ({"follow_up_months": 15.0, "patients": [_death("inf")]},
     "t_obs must be positive and finite, got inf"),
    ({"follow_up_months": 15.0, "patients": [_death(0.0)]},
     "t_obs must be positive and finite, got 0.0"),
    ({"follow_up_months": 15.0, "patients": [_death(40.0)]},
     "death at t_obs 40.0 after follow-up 15.0"),
    ({"follow_up_months": 0, "patients": [_death(5.0)]},
     "follow_up must be positive and finite, got 0.0"),
    ({"follow_up_months": -1, "patients": [_death(5.0)]},
     "follow_up must be positive and finite, got -1.0"),
    ({"follow_up_months": 15.0, "patients": [_death(5.0), {**_death(6.0), "id": 1, "x": [0.1, 2.0]}]},
     "covariate vectors must share one length, got [1, 2]"),
    *(({"follow_up_months": 15.0, "visit_times": visits, "patients": [_death(5.0)]},
       f"visit times must be finite, strictly increasing and within (0, 15.0], got {shown}")
      for visits, shown in (([3, 3, 6], "[3.0, 3.0, 6.0]"), ([0, 3], "[0.0, 3.0]"),
                            ([-3, 3], "[-3.0, 3.0]"), (["nan", 3], "[nan, 3.0]"),
                            ([3, 20], "[3.0, 20.0]"))),
], ids=["no-follow-up", "bad-arm", "scalar-x", "patient-unknown-key", "patient-follow-up",
        "top-level-unknown-key", "top-level-follow-up", "negative-death", "nan-death",
        "infinite-death", "zero-death", "death-after-follow-up", "zero-follow-up",
        "negative-follow-up", "ragged-x", "repeated-visit", "zero-visit", "negative-visit",
        "nan-visit", "visit-after-follow-up"])
@pytest.mark.parametrize("command", ["fit", "estimate"])
def test_refused_data_is_a_one_line_error(runner, fits_path, tmp_path, command, doc, refused):
    data = tmp_path / "observed.json"
    data.write_text(json.dumps(doc))
    out = tmp_path / "out"
    extra = ["--fits", str(fits_path)] if command == "estimate" else []
    result = runner.invoke(main, [command, "--data", str(data), "--out", str(out), *extra])
    assert result.exit_code == 1
    assert result.output.strip().splitlines() == [f"Error: data {data} refused: {refused}"]
    assert not out.exists()


def test_fit_leaves_out_visits_it_cannot_fit(runner, tmp_path):
    # the treated arm dies out early, so late visits have no treated patient
    library = json.loads(resources.files("tbd").joinpath("scenarios.json").read_text())
    scenario = tmp_path / "killed.json"
    scenario.write_text(json.dumps({"killed": {**library["mixed"], "th1_0": 4, "th1_x": 0}}))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mcmc": FAST_MCMC}))
    sim = tmp_path / "sim"
    result = runner.invoke(main, ["simulate", "--scenario", str(scenario), "--seed", "1",
                                  "--out", str(sim), "--n", "30"])
    assert result.exit_code == 0, result.output
    fits = tmp_path / "fits.json"
    result = runner.invoke(main, ["fit", "--data", str(sim / "observed.json"), "--out", str(fits),
                                  "--config", str(cfg), "--seed", "2"])
    assert result.exit_code == 0, result.output
    assert "no longitudinal fit at t=15.0" in result.output
    visits = set(json.loads(fits.read_text())["longitudinal"])
    assert "3" in visits and not visits & {"12", "15"}

    est = tmp_path / "est"
    result = runner.invoke(main, ["estimate", "--data", str(sim / "observed.json"),
                                  "--fits", str(fits), "--out", str(est), "--draws", "5"])
    assert result.exit_code == 0, result.output
    with open(est / "estimates.csv", newline="") as fh:
        times = {row["time"] for row in csv.DictReader(fh)}
    assert times == {f"{float(v)}" for v in visits}


def test_study_and_report_round_trip(runner, tmp_path):
    cfg = tmp_path / "study.json"
    cfg.write_text(
        json.dumps(
            {
                "scenarios": ["no_effect"],
                "replicates": 1,
                "n": 30,
                "k_draws": 10,
                "master_seed": 5,
                "mcmc": FAST_MCMC,
            }
        )
    )
    out = tmp_path / "study_out"
    result = runner.invoke(main, ["study", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "coverage_table.csv").exists()
    assert list((out / "cells").glob("*.json"))

    rep = tmp_path / "rereport"
    result = runner.invoke(main, ["report", "--results", str(out), "--out", str(rep)])
    assert result.exit_code == 0, result.output
    assert (rep / "coverage_table.csv").read_text() == (out / "coverage_table.csv").read_text()

    # a cell from another study config is refused, naming both hashes
    cell_file = sorted((out / "cells").glob("*.json"))[0]
    doc = json.loads(cell_file.read_text())
    other = dict(doc, config_hash="0123456789abcdef")
    (out / "cells" / "other__r0000.json").write_text(json.dumps(other))
    result = runner.invoke(main, ["report", "--results", str(out), "--out", str(rep)])
    assert result.exit_code != 0
    assert doc["config_hash"] in result.output and "0123456789abcdef" in result.output


def test_estimate_csv_writer_matches_dictwriter_bytes(tmp_path):
    # the rows tbd estimate writes, with every value the formatter special-cases
    values = [math.inf, -math.inf, math.nan, 0.1, -2.5e-7, 3.0, 123456789.0]
    est = [("bench", 0, 3.0, "sim", k, cli._cell(v), int(math.isinf(v)))
           for k, v in enumerate(values)]
    summ = [("sace", 6.0, cli._cell(None), cli._cell(math.nan), cli._cell(-math.inf), "0.5000"),
            ("wmw_reference", 6.0, cli._cell(0.25), "-", "-", "-")]
    for name, header, rows in (("estimates", cli.ESTIMATE_COLUMNS, est),
                               ("summary", cli.SUMMARY_COLUMNS, summ)):
        study.write_rows(tmp_path / f"{name}.csv", header, rows)
        with open(tmp_path / f"{name}_dict.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(header))
            writer.writeheader()
            writer.writerows(dict(zip(header, row)) for row in rows)
        assert (tmp_path / f"{name}.csv").read_bytes() == (
            tmp_path / f"{name}_dict.csv"
        ).read_bytes()
    assert "inf,1\n" in (tmp_path / "estimates.csv").read_text().replace("\r", "")
