"""End-to-end command-line workflows on tiny configurations."""

import csv
import json
from importlib import resources

import pytest
from click.testing import CliRunner

from tbd.cli import main

FAST_MCMC = {"chains": 2, "warmup": 200, "samples": 200, "min_ess": 5, "rhat_threshold": 2.0}


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
    doc = json.loads(fits_path.read_text())
    assert set(doc) == {"survival", "longitudinal"}
    surv = doc["survival"]
    assert {"grid", "draws", "diagnostics"} <= set(surv)
    assert {"lambda0", "lambda1", "alpha0", "alpha1"} == set(surv["draws"][0])
    assert set(doc["longitudinal"]) == {"3", "6", "9", "12", "15"}
    ldraw = doc["longitudinal"]["9"]["draws"][0]
    assert {"beta0_0", "beta0_1", "beta1_0", "beta1_1", "sigma"} == set(ldraw)


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
