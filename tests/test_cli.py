"""End-to-end command-line workflows on tiny configurations."""

import base64
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from tbd import cli, science, simulate, study
from tbd.cli import main
from tbd.codec import decode, encode
from tbd.study import _seed_int, build_config
from tbd.survival import default_grid, fit_survival

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
    *((json.dumps({"a": {**MIXED, name: value}}), [],
       f"scenario 'a': {name} must be positive and finite, got {shown}")
      for name, value, shown in (("follow_up", "inf", "inf"), ("follow_up", 0, "0.0"),
                                 ("sigma", "nan", "nan"), ("sigma", -1, "-1.0"),
                                 ("rho", "inf", "inf"), ("rho", "nan", "nan"))),
    *((json.dumps({"a": {**MIXED, name: value}}), [],
       f"scenario 'a': {name} must be finite, got {value}")
      for name, value in (("th0_0", "nan"), ("a1_0", "inf"))),
    (json.dumps({"a": {**MIXED, "th1_0": -5.0}}), [],
     "scenario 'a': non-positive Weibull scale for some sampled covariate"),
], ids=["several-none-by-stem", "unknown-key", "malformed-json", "n-zero", "file-not-object",
        "scenario-not-object", "repeated-visit", "unsorted-visits", "nan-visit", "zero-visit",
        "infinite-follow-up", "zero-follow-up", "nan-sigma", "negative-sigma", "infinite-rho",
        "nan-rho", "nan-scale-intercept", "infinite-slope-intercept", "negative-drawn-scale"])
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
    out = tmp_path_factory.mktemp("fits") / "new" / "fits.json"  # tbd fit makes the directory
    cfg = tmp_path_factory.mktemp("cfg") / "config.json"
    cfg.write_text(json.dumps({"mcmc": FAST_MCMC}))
    result = runner.invoke(
        main,
        ["fit", "--data", str(sim_dir / "observed.json"), "--out", str(out),
         "--config", str(cfg), "--seed", "11"],
    )
    assert result.exit_code == 0, result.output
    return out


def test_fit_creates_the_directory_of_its_output(fits_path):
    assert [p.name for p in fits_path.parent.iterdir()] == ["fits.json"]


def test_fit_output_schema(fits_path):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    doc = json.loads(fits_path.read_text(), parse_constant=refuse)
    assert set(doc) == {"survival", "longitudinal"}
    surv = doc["survival"]
    assert {"grid", "lambda0", "lambda1", "alpha0", "alpha1", "diagnostics", "converged"} <= set(surv)
    n_draws = FAST_MCMC["chains"] * FAST_MCMC["samples"]
    assert surv["lambda0"]["shape"] == [n_draws, len(surv["grid"]["cutpoints"]) - 1]
    assert surv["alpha1"]["shape"] == [n_draws, 1]
    assert set(doc["longitudinal"]) == {"3", "6", "9", "12", "15"}
    long9 = doc["longitudinal"]["9"]
    assert {"t", "beta0", "beta1", "sigma", "diagnostics", "converged"} <= set(long9)
    assert long9["beta0"]["shape"] == [n_draws, 2]
    assert long9["beta1"]["shape"] == [n_draws, 2, 1]
    assert long9["sigma"]["shape"] == [n_draws]
    for array in (surv["lambda0"], surv["alpha1"], long9["beta0"], long9["beta1"],
                  long9["sigma"]):  # raw float64 bytes, base64-encoded
        assert set(array) == {"shape", "float64le"}
        assert len(base64.b64decode(array["float64le"])) == 8 * math.prod(array["shape"])


def test_written_json_is_one_line_and_parses_as_before(sim_dir, fits_path):
    # the files drop the one-key-per-line layout, not any content: each
    # parses to the document an indented dump of the same data parses to
    table = simulate.simulate_science_table(
        simulate.get_scenario("no_effect").with_updates(n=40),
        simulate.child_seed(3, "no_effect", "sim"),
    )
    data = simulate.observe(table)
    cfg = build_config({"mcmc": FAST_MCMC, "scenarios": []})
    spost = fit_survival(data, default_grid(data.follow_up, data.visit_times),
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
    assert doc["survival"]["lambda0"]["shape"][0] == 800
    assert {ldoc["sigma"]["shape"][0] for ldoc in doc["longitudinal"].values()} == {800}


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


def test_estimate_rows_are_what_csv_writes(runner, sim_dir, fits_path, tmp_path):
    # a label with a comma and a quote is quoted in every row, as csv.writer
    # quotes it; its percent signs are text, not format directives
    label = 'a,"b %d%% x%'
    result = runner.invoke(main, ["estimate", "--data", str(sim_dir / "observed.json"),
                                  "--fits", str(fits_path), "--out", str(tmp_path),
                                  "--draws", "3", "--label", label])
    assert result.exit_code == 0, result.output
    text = (tmp_path / "estimates.csv").read_bytes().decode()
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert len(rows) == 1 + 5 * 4 * 3 and {row[0] for row in rows[1:]} == {label}
    rewritten = io.StringIO()
    csv.writer(rewritten).writerows(rows)
    assert rewritten.getvalue() == text


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


def _per_row(prefix, values):
    """``estimates.csv`` rows of one series, one f-string a row: the reference
    ``cli._draw_rows`` renders with one ``%`` operation."""
    return "\r\n".join(f"{prefix},{i},{study.fmt(v, '.6g')},{int(math.isinf(v))}"
                         for i, v in enumerate(values.tolist()))


@pytest.mark.parametrize("label", ["bench", "50%,a", "%s%d%%", 'q"%.6g'])
def test_draw_rows_match_per_row_rendering(label):
    values = np.array([-0.0, math.inf, -math.inf, math.nan, 1e-300, 1e16, 0.1 + 0.2, -123456789.0,
                       5e-324, math.nan, 1.0, 2.5e-7])
    prefix = study.csv_line((label, 0, 4.5, "sim"))
    assert cli._draw_rows(prefix, values) == _per_row(prefix, values)
    for one in values:
        assert cli._draw_rows(prefix, np.array([one])) == _per_row(prefix, np.array([one]))
    assert cli._draw_rows(prefix, np.full(3, math.nan)) == _per_row(prefix, np.full(3, math.nan))
    row = next(csv.reader([cli._draw_rows(prefix, values[:1])]))
    assert row == [label, "0", "4.5", "sim", "0", "-0", "0"]


def test_fit_then_estimate_is_estimate_visits_in_memory(runner, sim_dir, tmp_path, monkeypatch):
    # tbd fit, then tbd estimate through the file, in one process: every
    # posterior array reads back bit for bit, and the estimates are those of
    # the in-memory posteriors, draws and summaries alike
    fit_posteriors, estimate_visits, shared, estimated = (
        study.fit_posteriors, study.estimate_visits, {}, [])

    def fit_once(data, config, *seed_parts):
        shared["data"], shared["fits"] = data, fit_posteriors(data, config, *seed_parts)
        return shared["fits"]

    def spy(*args):
        estimated.extend(estimate_visits(*args))
        return estimated

    monkeypatch.setattr(study, "fit_posteriors", fit_once)
    monkeypatch.setattr(study, "estimate_visits", spy)
    cfg, fits_file = tmp_path / "config.json", tmp_path / "fits.json"
    cfg.write_text(json.dumps({"mcmc": FAST_MCMC}))
    main(["fit", "--data", str(sim_dir / "observed.json"), "--out", str(fits_file),
          "--config", str(cfg), "--seed", "4"], standalone_mode=False)
    main(["estimate", "--data", str(sim_dir / "observed.json"), "--fits", str(fits_file),
          "--out", str(tmp_path / "est"), "--draws", "400"], standalone_mode=False)
    fits = shared["fits"]
    written = decode(cli.PosteriorFile, science.load_json(fits_file))
    in_memory = [(fits.survival, written.survival)] + [
        (post, written.longitudinal[t]) for t, post in fits.longitudinal.items()]
    for post, doc in in_memory:
        back = type(post).from_json(doc)
        for name in ("lambda0", "lambda1", "alpha0", "alpha1", "beta0", "beta1", "sigma"):
            if hasattr(post, name):
                want, got = getattr(post, name), getattr(back, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def bits(visit):  # encode writes every array's and json every float's bits
        return json.dumps(encode([visit.time, visit.draws, visit.summaries, visit.naive,
                                  visit.wmw]))

    again = estimate_visits(fits.survival, fits.longitudinal, shared["data"], 400)
    assert len(estimated) == len(again) == 5
    assert [bits(v) for v in estimated] == [bits(v) for v in again]


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


def _listed(doc):
    """``doc`` with every encoded array written as nested number lists, the
    layout ``tbd fit`` wrote before arrays became base64 float64 bytes."""
    if isinstance(doc, dict):
        if set(doc) == {"shape", "float64le"}:
            return decode(np.ndarray, doc).tolist()
        return {k: _listed(v) for k, v in doc.items()}
    return doc


def test_estimate_refuses_a_list_layout_fits_file(runner, sim_dir, fits_path, tmp_path):
    fits, out = tmp_path / "fits.json", tmp_path / "est"
    fits.write_text(json.dumps(_listed(json.loads(fits_path.read_text()))))
    result = runner.invoke(main, ["estimate", "--data", str(sim_dir / "observed.json"),
                                  "--fits", str(fits), "--out", str(out)])
    assert result.exit_code == 1
    [line] = result.output.strip().splitlines()
    assert line.startswith(f"Error: posteriors {fits} refused: SurvivalPosterior.alpha0: "
                           "expected an object of ['float64le', 'shape'], got [[")
    assert line.endswith("; rerun `tbd fit`")
    assert not out.exists()


FOUR = base64.b64encode(np.arange(4.0).tobytes()).decode()  # four float64 values


@pytest.mark.parametrize("lambda0, refused", [
    ([[0.1], [0.2]], "expected an object of ['float64le', 'shape'], got [[0.1], [0.2]]"),
    ([True, 1.5], "expected an object of ['float64le', 'shape'], got [True, 1.5]"),
    ("AAAA", "expected an object of ['float64le', 'shape'], got 'AAAA'"),
    ({"shape": [4, 1], "float64le": FOUR[:-1]}, "invalid base64: Incorrect padding"),
    ({"shape": [4, 1], "float64le": "*" + FOUR[1:]},
     "invalid base64: Only base64 data is allowed"),
    ({"shape": [4, 1], "float64le": FOUR.replace("A", "A\n", 1)},
     "invalid base64: Only base64 data is allowed"),
    ({"shape": [5, 1], "float64le": FOUR}, "32 bytes for shape [5, 1], which holds 40"),
    ({"shape": [2, 1], "float64le": FOUR}, "32 bytes for shape [2, 1], which holds 16"),
    ({"shape": [-4, -1], "float64le": FOUR},
     "expected a shape of non-negative integers, got [-4, -1]"),
    ({"shape": [4, 1.5], "float64le": FOUR}, "expected an integer, got 1.5"),
    ({"shape": [4, True], "float64le": FOUR}, "expected an integer, got True"),
    ({"shape": "4", "float64le": FOUR}, "expected a list, got '4'"),
    ({"shape": [4, 1], "float64le": 7}, "expected a string, got 7"),
    ({"float64le": FOUR}, "expected keys ['float64le', 'shape'], got ['float64le']"),
    ({"shape": [4, 1], "float64le": FOUR, "dtype": "<f8"},
     "expected keys ['float64le', 'shape'], got ['dtype', 'float64le', 'shape']"),
], ids=["list-layout", "boolean-in-list", "bare-string", "bad-padding", "not-base64",
        "newline-in-base64", "too-few-bytes", "too-many-bytes", "negative-dimension",
        "fractional-dimension", "boolean-dimension", "shape-not-list", "bytes-not-string",
        "missing-key", "extra-key"])
def test_estimate_refuses_a_misencoded_array(runner, sim_dir, fits_path, tmp_path, lambda0,
                                             refused):
    doc = json.loads(fits_path.read_text())
    doc["survival"]["lambda0"] = lambda0
    fits, out = tmp_path / "fits.json", tmp_path / "est"
    fits.write_text(json.dumps(doc))
    result = runner.invoke(main, ["estimate", "--data", str(sim_dir / "observed.json"),
                                  "--fits", str(fits), "--out", str(out)])
    assert result.exit_code == 1
    assert result.output.strip().splitlines() == [
        f"Error: posteriors {fits} refused: SurvivalPosterior.lambda0: {refused}; rerun `tbd fit`"
    ]
    assert not out.exists()


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
    pool = min(doc["survival"]["lambda0"]["shape"][0],
               *(ldoc["sigma"]["shape"][0] for ldoc in doc["longitudinal"].values()))
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


def _widened(array_doc):
    """An encoded array with a column of zeros appended along its last axis."""
    a = decode(np.ndarray, array_doc)
    return encode(np.concatenate([a, np.zeros((*a.shape[:-1], 1))], axis=-1))


@pytest.mark.parametrize("widen", ["data", "fits", "one-visit"])
def test_estimate_refuses_fits_of_another_covariate_width(runner, sim_dir, fits_path, tmp_path,
                                                          widen):
    data, fits = tmp_path / "observed.json", tmp_path / "fits.json"
    data_doc = json.loads((sim_dir / "observed.json").read_text())
    fits_doc = json.loads(fits_path.read_text())
    if widen == "data":
        for patient in data_doc["patients"]:
            patient["x"] = [*patient["x"], 0.0]
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


@pytest.mark.parametrize("renamed", ["not-a-visit", "not-a-number"])
def test_estimate_refuses_fits_at_months_that_are_not_visits(runner, sim_dir, fits_path,
                                                             tmp_path, renamed):
    data, fits = sim_dir / "observed.json", tmp_path / "fits.json"
    doc = json.loads(fits_path.read_text())
    visits = json.loads(data.read_text())["visit_times"]
    key = next(iter(doc["longitudinal"]))
    new_key = f"{float(key) + 1:g}" if renamed == "not-a-visit" else f"month{key}"
    assert float(key) in visits and new_key not in doc["longitudinal"]
    doc["longitudinal"] = {new_key if k == key else k: v for k, v in doc["longitudinal"].items()}
    fits.write_text(json.dumps(doc))
    out = tmp_path / "out"
    result = runner.invoke(main, ["estimate", "--data", str(data), "--fits", str(fits),
                                  "--out", str(out), "--draws", "5"])
    reason = (f"fitted at months [{float(new_key)}], not visits of data {data} ({visits})"
              if renamed == "not-a-visit"
              else f"PosteriorFile.longitudinal: could not convert string to float: '{new_key}'")
    assert result.exit_code == 1
    assert result.output.strip().splitlines() == [
        f"Error: posteriors {fits} refused: {reason}; rerun `tbd fit`"
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
     "ObservedPatient.x: expected a list, got 0.1"),
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
    ({"follow_up_months": 15.0, "patients": [{**_death(5.0), "x": []},
                                             {**_death(6.0), "id": 1, "x": []}]},
     "covariate vectors must hold at least one covariate, got 0"),
    ({"follow_up_months": 15.0, "visit_times": [3, 6], "patients": [
        {**_death(10.0), "id": 7, "y_obs": {"3": 1.0, "4": 2.0, "6": 3.0}}]},
     "patient 7 has a value at month 4.0, which is not a visit time [3.0, 6.0]"),
    *(({"follow_up_months": 15.0, "visit_times": visits, "patients": [_death(5.0)]},
       f"visit times must be finite, strictly increasing and within (0, 15.0], got {shown}")
      for visits, shown in (([3, 3, 6], "[3.0, 3.0, 6.0]"), ([0, 3], "[0.0, 3.0]"),
                            ([-3, 3], "[-3.0, 3.0]"), (["nan", 3], "[nan, 3.0]"),
                            ([3, 20], "[3.0, 20.0]"))),
    ({"follow_up_months": 15.0, "visit_times": [3, 6], "patients": [
        {**_death(10.0), "id": 7, "y_obs": {"3": 1.0}}]},
     "patient 7 alive at month 6.0 without a measurement"),
    ({"follow_up_months": 15.0, "visit_times": [3], "patients": [
        _death(2.0), {"id": 4, "x": [0.1], "w": 1, "t_obs": 15.0, "d_obs": 0, "y_obs": {}}]},
     "patient 4 alive at month 3.0 without a measurement"),
], ids=["no-follow-up", "bad-arm", "scalar-x", "patient-unknown-key", "patient-follow-up",
        "top-level-unknown-key", "top-level-follow-up", "negative-death", "nan-death",
        "infinite-death", "zero-death", "death-after-follow-up", "zero-follow-up",
        "negative-follow-up", "ragged-x", "no-covariates", "non-visit-month", "repeated-visit",
        "zero-visit", "negative-visit", "nan-visit", "visit-after-follow-up", "gap-before-death",
        "gap-while-censored"])
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
    # SACE, PC and SIM at the fitted visits only; the restricted-mean
    # contrast and the references, which need no longitudinal fit, at every
    # visit, each visit's rows in time order
    every = ["3.0", "6.0", "9.0", "12.0", "15.0"]
    fitted = [t for t in every if t[:-2] in visits]
    for name, rows_per_visit, estimands in (("estimates.csv", 5, ("sace", "pc", "sim", "rmst")),
                                            ("summary.csv", 1, ("sace", "pc", "sim", "rmst",
                                                                "naive_reference_biased",
                                                                "wmw_reference"))):
        with open(est / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        times = [row["time"] for row in rows]
        assert times == sorted(times, key=float), name
        for estimand in estimands:
            want = every if estimand not in ("sace", "pc", "sim") else fitted
            got = [row["time"] for row in rows if row["estimand"] == estimand]
            assert got == [t for t in want for _ in range(rows_per_visit)], (name, estimand)


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


def _misshapen(kind: str, doc, option: str):
    """The text of a file of ``kind`` made from the good document ``doc``
    given to ``option``, and the reason it is refused for."""
    text = json.dumps(doc)
    if kind == "truncated":
        with pytest.raises(json.JSONDecodeError) as parsed:
            json.loads(text[:-1])
        return text[:-1], str(parsed.value)
    if kind == "top-level-array":
        return "[1]", {"--scenario": "expected an object of named scenarios, got [1]",
                       "--config": "StudyConfig: expected an object, got [1]",
                       "--fits": "PosteriorFile: expected an object, got [1]"}.get(
                           option, "expected an object, got [1]")
    doc = json.loads(text)
    if kind == "string-visit-times" and option == "--scenario":
        doc["a"]["visit_times"] = "369"
        reason = "scenario 'a': ScenarioParams.visit_times: expected a list, got '369'"
    elif kind == "string-visit-times":
        doc["visit_times"] = "369"
        reason = "ObservedDataset.visit_times: expected a list, got '369'"
    elif kind == "string-x":
        doc["patients"][0]["x"] = "05"
        reason = "ObservedPatient.x: expected a list, got '05'"
    elif kind == "array-y-obs":
        doc["patients"][0]["y_obs"] = [1.0]
        reason = "ObservedPatient.y_obs: expected an object, got [1.0]"
    elif kind == "array-diagnostics":
        doc["survival"]["diagnostics"] = [1.0]
        reason = "SurvivalPosterior.diagnostics: expected an object, got [1.0]"
    elif kind == "unknown-key":
        doc["extra"] = 1
        reason = "PosteriorFile: unknown keys ['extra']"
    else:  # "converged-as-number", as tbd fit wrote it before it wrote booleans
        next(iter(doc["longitudinal"].values()))["converged"] = 1.0
        reason = "LongitudinalPosterior.converged: expected a boolean, got 1.0"
    return json.dumps(doc), reason


FILE_KINDS = {
    ("simulate", "--scenario"): ("directory", "truncated", "top-level-array", "string-visit-times"),
    ("fit", "--data"): ("directory", "truncated", "top-level-array", "array-y-obs",
                        "string-visit-times", "string-x"),
    ("fit", "--config"): ("directory", "truncated", "top-level-array"),
    ("study", "--config"): ("directory", "truncated", "top-level-array"),
    ("estimate", "--data"): ("directory", "truncated", "top-level-array", "array-y-obs",
                             "string-visit-times", "string-x"),
    ("estimate", "--fits"): ("directory", "truncated", "top-level-array", "array-diagnostics",
                             "unknown-key", "converged-as-number"),
}


@pytest.mark.parametrize("command, option, kind", [
    (command, option, kind) for (command, option), kinds in FILE_KINDS.items() for kind in kinds
], ids=[f"{command}{option}-{kind}" for (command, option), kinds in FILE_KINDS.items()
        for kind in kinds])
def test_refused_file_is_a_one_line_error(runner, sim_dir, fits_path, tmp_path, command, option,
                                          kind):
    observed, config = sim_dir / "observed.json", tmp_path / "config.json"
    config.write_text(json.dumps({"mcmc": FAST_MCMC}))
    good = {"--scenario": {"a": MIXED}, "--data": json.loads(observed.read_text()),
            "--config": {"scenarios": []} if command == "study" else {"mcmc": FAST_MCMC},
            "--fits": json.loads(fits_path.read_text())}[option]
    bad = tmp_path / "bad.json"
    if kind == "directory":
        bad.mkdir()
    else:
        text, reason = _misshapen(kind, good, option)
        bad.write_text(text)
    out = tmp_path / "out"
    files = {"--data": str(observed), "--fits": str(fits_path), "--config": str(config),
             option: str(bad)}
    argv = {
        "simulate": ["--scenario", files["--scenario"] if option == "--scenario" else "mixed"],
        "fit": ["--data", files["--data"], "--config", files["--config"]],
        "study": ["--config", files["--config"]],
        "estimate": ["--data", files["--data"], "--fits", files["--fits"]],
    }[command]
    result = runner.invoke(main, [command, *argv, "--out", str(out / "fits.json")
                                  if command == "fit" else str(out)])
    lines = result.output.strip().splitlines()
    assert isinstance(result.exception, SystemExit) and "Traceback" not in result.output
    assert not out.exists()
    if kind == "directory" and option != "--scenario":  # a file option: click refuses it
        assert result.exit_code == 2
        assert lines[-1] == f"Error: Invalid value for '{option}': File '{bad}' is a directory."
        return
    if kind == "directory":
        reason = f"[Errno 21] Is a directory: '{bad}'"
    what = {"--scenario": "scenario", "--data": "data", "--config": "config",
            "--fits": "posteriors"}[option]
    advice = "; rerun `tbd fit`" if what == "posteriors" else ""
    assert result.exit_code == 1
    assert lines == [f"Error: {what} {bad} refused: {reason}{advice}"]


def test_fit_leaves_out_a_visit_whose_sigma_reaches_the_grid_end(runner, tmp_path):
    # every outcome at month 3 is 1: the sigma posterior piles up in the
    # lowest cell of its grid, so that visit has no posterior to write
    rng = np.random.default_rng(8)
    data = {"follow_up_months": 15.0, "visit_times": [3, 6], "patients": [
        {"id": i, "x": [rng.normal()], "w": i % 2, "t_obs": 15.0, "d_obs": 0,
         "y_obs": {"3": 1.0, "6": rng.normal()}} for i in range(40)]}
    observed, cfg, fits = tmp_path / "observed.json", tmp_path / "config.json", tmp_path / "fits.json"
    observed.write_text(json.dumps(data))
    cfg.write_text(json.dumps({"mcmc": FAST_MCMC}))
    result = runner.invoke(main, ["fit", "--data", str(observed), "--out", str(fits),
                                  "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    assert ("warning: no longitudinal fit at t=3.0, left out: sigma posterior at t=3.0 reaches "
            "the grid end at 0.01") in result.output
    assert set(json.loads(fits.read_text())["longitudinal"]) == {"6"}


def test_cell_and_estimate_take_one_estimation_step(runner, tmp_path, monkeypatch):
    # one fit_posteriors result goes to a study cell and, through the file
    # tbd fit writes, to tbd estimate: the summaries and references agree bit
    # for bit at every visit, and a visit left out of the fits holds the
    # restricted-mean contrast alone on both paths
    killed = simulate.get_scenario("mixed").with_updates(n=30, th1_0=4.0, th1_x=0.0)
    cfg = replace(build_config({"scenarios": [], "k_draws": 10, "mcmc": FAST_MCMC}),
                  scenarios=(killed,))
    fit_posteriors, shared = study.fit_posteriors, {}

    def fit_once(data, config, *seed_parts):
        shared["data"], shared["fits"] = data, fit_posteriors(data, config, *seed_parts)
        return shared["fits"]

    monkeypatch.setattr(study, "fit_posteriors", fit_once)
    cell = study.run_cell(cfg, killed, 0)
    fits = shared["fits"]
    left_out = [t for t in killed.visit_times if t not in fits.longitudinal]
    assert left_out and set(fits.failures) == set(left_out)  # no flagged fit was written

    observed, fits_file = tmp_path / "observed.json", tmp_path / "fits.json"
    science.dump_json(science.observed_to_json(shared["data"]), observed)
    science.dump_json(encode(cli.PosteriorFile(fits.survival, fits.longitudinal)), fits_file)
    estimate_visits, estimated = study.estimate_visits, []

    def spy(*args):
        estimated.extend(estimate_visits(*args))
        return estimated

    monkeypatch.setattr(study, "estimate_visits", spy)
    result = runner.invoke(main, ["estimate", "--data", str(observed), "--fits", str(fits_file),
                                  "--out", str(tmp_path / "est"), "--draws", "10"])
    assert result.exit_code == 0, result.output

    def bits(time, summaries, naive, wmw):  # json writes -0.0 and every float's bits
        return json.dumps(encode([time, summaries, naive, wmw]))

    assert [bits(ct.time, ct.summaries, ct.naive, ct.wmw) for ct in cell.times] == [
        bits(v.time, v.summaries, v.naive, v.wmw) for v in estimated]
    assert [list(v.summaries) for v in estimated] == [
        ["rmst"] if v.time in left_out else ["sace", "pc", "sim", "rmst"] for v in estimated]
    assert [v.time for v in estimated] == list(killed.visit_times)


@pytest.mark.parametrize("command", ["simulate", "fit", "estimate", "study", "report"])
def test_unwritable_output_is_a_one_line_error(runner, sim_dir, fits_path, tmp_path, command):
    # a directory where an output file belongs; for tbd fit, whose --out
    # option itself refuses a directory, a file where its directory belongs
    out = tmp_path / "out"
    config = tmp_path / "study.json"
    config.write_text(json.dumps({"scenarios": ["no_effect"], "replicates": 2, "n": 30,
                                  "k_draws": 10, "master_seed": 5, "mcmc": FAST_MCMC}))
    if command == "report":
        result = runner.invoke(main, ["study", "--config", str(config), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
    target, reason = {
        "simulate": (out / "truths.csv", "Is a directory"),
        "fit": (out / "fits.json", f"File exists: {out}"),
        "estimate": (out / "estimates.csv", "Is a directory"),
        "study": (out / "cells" / "no_effect__r0000.json", "Is a directory"),
        "report": (out / "metrics.csv", "Is a directory"),
    }[command]
    if command == "fit":
        out.write_text("")
    else:
        target.mkdir(parents=True)
    argv = {
        "simulate": ["--scenario", "no_effect", "--n", "30", "--out", str(out)],
        "fit": ["--data", str(sim_dir / "observed.json"), "--out", str(target)],
        "estimate": ["--data", str(sim_dir / "observed.json"), "--fits", str(fits_path),
                     "--draws", "5", "--out", str(out)],
        "study": ["--config", str(config), "--out", str(out)],
        "report": ["--results", str(tmp_path), "--out", str(out)],
    }[command]
    result = runner.invoke(main, [command, *argv])
    assert isinstance(result.exception, SystemExit) and "Traceback" not in result.output
    assert result.exit_code == 1
    assert result.output.strip().splitlines()[-1] == f"Error: output {target} refused: {reason}"
    assert not list(tmp_path.rglob("*.tmp"))
    if command == "study":  # the other cell is written all the same; the report is not
        assert (out / "cells" / "no_effect__r0001.json").is_file()
        assert not (out / "coverage_table.csv").exists()


def test_study_refuses_workers_below_one(runner, tmp_path):
    result = runner.invoke(main, ["study", "--out", str(tmp_path / "out"), "--workers", "0"])
    assert result.exit_code == 2
    assert "Invalid value for '--workers': 0 is not in the range x>=1." in result.output
    assert not (tmp_path / "out").exists()


SCIPY_SCRIPT = """
import json, sys
from pathlib import Path
import tbd, tbd.cli, tbd.study

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = Path(sys.argv[1])
(out / "config.json").write_text(json.dumps({"mcmc": json.loads(sys.argv[2])}))
tbd.cli.main(["simulate", "--scenario", "no_effect", "--seed", "3", "--n", "40",
              "--out", str(out)], standalone_mode=False)
tbd.cli.main(["fit", "--data", str(out / "observed.json"), "--out", str(out / "fits.json"),
              "--config", str(out / "config.json"), "--seed", "11"], standalone_mode=False)
assert scipy_modules() == [], scipy_modules()
fits = tbd.science.load_json(out / "fits.json")
data = tbd.science.observed_from_json(tbd.science.load_json(out / "observed.json"))
tbd.estimand_draws(tbd.SurvivalPosterior.from_json(fits["survival"]),
                   tbd.LongitudinalPosterior.from_json(fits["longitudinal"]["15"]), data, 15.0, 10)
assert "scipy.special" in sys.modules
"""


def test_scipy_loads_only_when_pc_is_evaluated(tmp_path):
    # scipy.special is most of the package's import time, and only PC's
    # Normal cdf needs it: importing tbd, simulating and fitting never load
    # scipy, and the first estimand evaluation does
    path = os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", SCIPY_SCRIPT, str(tmp_path), json.dumps(FAST_MCMC)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fits.json").is_file()
