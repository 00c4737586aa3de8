"""Study driver: determinism, caching, failure isolation, and reports."""

import json
import math
import re
import shutil
from pathlib import Path

import pytest

from tbd import study
from tbd.estimators import EstimandSummary
from tbd.metrics import BiasCoverage

from tbd.mcmc import McmcConfig
from tbd.simulate import TruthRecord, get_scenario
from tbd.study import (
    CellResult,
    CellTimeResult,
    StudyConfig,
    build_config,
    coverage_rows,
    emit_report,
    run_cell,
    run_study,
)

SMALL_MCMC = McmcConfig(chains=2, samples=250, seed=0, min_ess=30)


def _config(**kwargs):
    scenario = get_scenario("no_effect").with_updates(n=40, visit_times=(3.0, 9.0))
    defaults = dict(
        scenarios=(scenario,),
        replicates=2,
        k_draws=25,
        master_seed=7,
        mcmc=SMALL_MCMC,
    )
    defaults.update(kwargs)
    return StudyConfig(**defaults)


@pytest.fixture(scope="module")
def study_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    cfg = _config()
    results = run_study(cfg, out, workers=1)
    return cfg, out, results


class TestRunStudy:
    def test_grid_is_complete(self, study_dir):
        _, _, results = study_dir
        assert len(results.cells) == 2
        for cell in results.cells:
            assert [ct.time for ct in cell.times] == [3.0, 9.0]

    def test_rerun_is_byte_identical(self, study_dir, tmp_path):
        cfg, out, _ = study_dir
        out2 = tmp_path / "again"
        run_study(cfg, out2, workers=1)
        for path in sorted((out / "cells").glob("*.json")):
            other = out2 / "cells" / path.name
            assert path.read_bytes() == other.read_bytes()

    def test_cached_cells_are_reused(self, study_dir):
        cfg, out, first = study_dir
        before = {p.name: p.stat().st_mtime_ns for p in (out / "cells").glob("*.json")}
        again = run_study(cfg, out, workers=1)
        after = {p.name: p.stat().st_mtime_ns for p in (out / "cells").glob("*.json")}
        assert before == after  # nothing recomputed
        for a, b in zip(first.cells, again.cells):
            assert a.to_doc() == b.to_doc()

    def test_config_change_invalidates_cache(self, study_dir, tmp_path):
        cfg, out, _ = study_dir
        out2 = tmp_path / "copy"
        (out2 / "cells").mkdir(parents=True)
        for p in (out / "cells").glob("*.json"):
            (out2 / "cells" / p.name).write_bytes(p.read_bytes())
        changed = _config(master_seed=8)
        results = run_study(changed, out2, workers=1)
        docs = [json.loads(p.read_text()) for p in (out2 / "cells").glob("*.json")]
        assert all(d["config_hash"] == changed.content_hash() for d in docs)
        assert results.config_hash == changed.content_hash() != _config().content_hash()

    def test_code_change_invalidates_cache(self, study_dir, tmp_path, monkeypatch):
        cfg, out, _ = study_dir
        out2 = tmp_path / "copy"
        shutil.copytree(out / "cells", out2 / "cells")
        old_hash = cfg.content_hash()
        monkeypatch.setattr(study, "code_fingerprint", lambda: "other code")
        new_hash = cfg.content_hash()
        assert new_hash != old_hash
        run_study(cfg, out2, workers=1)
        for path in sorted((out / "cells").glob("*.json")):
            old_doc = json.loads(path.read_text())
            new_doc = json.loads((out2 / "cells" / path.name).read_text())
            assert (old_doc["config_hash"], new_doc["config_hash"]) == (old_hash, new_hash)
            assert new_doc["cell"] == old_doc["cell"]

    def test_crashing_cell_costs_only_itself(self, tmp_path, monkeypatch, capsys):
        real = study.run_cell

        def crash_on_second(config, scenario, replicate):
            if replicate == 1:
                raise RuntimeError("boom")
            return real(config, scenario, replicate)

        monkeypatch.setattr(study, "run_cell", crash_on_second)
        results = run_study(_config(replicates=3), tmp_path, workers=1)
        assert results.n_failed == 1
        assert [c.failure for c in results.cells] == [None, "crashed: RuntimeError: boom", None]
        assert "RuntimeError: boom" in capsys.readouterr().err
        for rep in (0, 2):
            assert (tmp_path / "cells" / f"no_effect__r{rep:04d}.json").exists()

    def test_worker_processes_write_the_same_cells(self, study_dir, tmp_path):
        cfg, out, _ = study_dir
        run_study(cfg, tmp_path, workers=2)
        names = sorted(p.name for p in (out / "cells").glob("*.json"))
        assert names == sorted(p.name for p in (tmp_path / "cells").glob("*.json"))
        for name in names:
            assert (tmp_path / "cells" / name).read_bytes() == (out / "cells" / name).read_bytes()

    def test_cell_files_are_replaced_atomically(self, tmp_path, monkeypatch):
        moves = []
        real = study.os.replace

        def spy(src, dst):
            moves.append((Path(src), Path(dst)))
            real(src, dst)

        monkeypatch.setattr(study.os, "replace", spy)
        run_study(_config(replicates=1), tmp_path, workers=1)
        cell_file = tmp_path / "cells" / "no_effect__r0000.json"
        assert moves == [(cell_file.with_name(cell_file.name + ".tmp"), cell_file)]
        assert [p.name for p in (tmp_path / "cells").iterdir()] == [cell_file.name]

    def test_truncated_cell_file_is_recomputed(self, study_dir, tmp_path):
        cfg, out, _ = study_dir
        out2 = tmp_path / "copy"
        shutil.copytree(out / "cells", out2 / "cells")
        victim = out2 / "cells" / "no_effect__r0001.json"
        intact = victim.read_bytes()
        victim.write_bytes(intact[: len(intact) // 2])
        with pytest.warns(UserWarning, match="unreadable cell file"):
            run_study(cfg, out2, workers=1)
        assert victim.read_bytes() == intact

    def test_truths_recorded_exactly(self, study_dir):
        _, _, results = study_dir
        for cell in results.cells:
            for ct in cell.times:
                assert ct.truth.sace == 0.0
                assert ct.truth.pc == 0.5
                assert ct.truth.rmst == 0.0


class TestCellDoc:
    def test_round_trip_keeps_non_finite_and_missing_values(self):
        nan, inf = math.nan, math.inf
        cell = CellResult(
            scenario="s", replicate=3, ibs=nan, cdauc=None, survival_rhat=inf,
            failed=True, failure="nan",
            times=[
                CellTimeResult(
                    time=9.0,
                    truth=TruthRecord(9.0, None, 0.5, -inf, 0.0, 0.1, 0.2, 0),
                    summaries={"sim": EstimandSummary(None, -inf, inf, 1.0, 10)},
                    bias_coverage={"sim": BiasCoverage(False, truth=-inf, reason="inf")},
                    naive=nan, wmw=None, death_pct=12.5, mae=None,
                    failed=True, failure="-inf",
                )
            ],
        )
        doc = json.loads(json.dumps(cell.to_doc()))
        back = CellResult.from_doc(doc)
        assert math.isnan(back.ibs) and back.cdauc is None and back.survival_rhat == inf
        ct = back.times[0]
        assert ct.truth.sace is None and ct.truth.sim == -inf
        assert ct.summaries["sim"] == EstimandSummary(None, -inf, inf, 1.0, 10)
        assert ct.bias_coverage["sim"] == BiasCoverage(False, truth=-inf, reason="inf")
        assert math.isnan(ct.naive) and ct.wmw is None and ct.mae is None
        # strings that spell a non-finite float stay strings
        assert (back.failure, ct.failure) == ("nan", "-inf")
        assert back.to_doc() == cell.to_doc()


class TestFailureIsolation:
    def test_impossible_arm_recorded_not_raised(self, tmp_path):
        # kill the treated arm early so the longitudinal fit at late t fails
        scenario = get_scenario("mixed").with_updates(
            n=30, th1_0=4.0, th1_x=0.0, visit_times=(3.0, 12.0)
        )
        cfg = StudyConfig(
            scenarios=(scenario,), replicates=1, k_draws=10, master_seed=3,
            mcmc=SMALL_MCMC,
        )
        cell = run_cell(cfg, scenario, 0)
        assert not cell.failed  # survival fit itself is fine
        failed_times = [ct for ct in cell.times if ct.failed]
        assert failed_times and "arm 1" in failed_times[0].failure
        ok_times = [ct for ct in cell.times if not ct.failed]
        assert ok_times  # early visit still produced estimates


class TestReports:
    def test_report_files_written(self, study_dir, tmp_path):
        _, _, results = study_dir
        out = tmp_path / "report"
        written = emit_report(results, out)
        names = {p.name for p in written}
        assert names == {"coverage_table.csv", "bias_table.csv", "figure_data.csv", "metrics.csv"}
        header = (out / "coverage_table.csv").read_text().splitlines()[0]
        assert header.startswith("scenario,time,estimand,truth,coverage_pct")

    def test_coverage_rows_cover_grid(self, study_dir):
        _, _, results = study_dir
        rows = coverage_rows(results)
        # 1 scenario x 2 times x 4 estimands
        assert len(rows) == 8
        assert all(row["n_cells"] + row["n_undefined"] <= 2 for row in rows)

    def test_reference_estimators_flagged_in_metrics(self, study_dir, tmp_path):
        _, _, results = study_dir
        emit_report(results, tmp_path)
        text = (tmp_path / "metrics.csv").read_text()
        assert "naive_reference_biased" in text
        assert "wmw_reference" in text

    def test_undefined_sim_truth_prints_dash(self, tmp_path):
        # force an undefined median: harmed-dominated scenario at late t
        scenario = get_scenario("mixed").with_updates(n=30, visit_times=(12.0,))
        cfg = StudyConfig(
            scenarios=(scenario,), replicates=1, k_draws=10, master_seed=5,
            mcmc=SMALL_MCMC,
        )
        results = run_study(cfg, tmp_path / "s", workers=1)
        emit_report(results, tmp_path / "r")
        text = (tmp_path / "r" / "coverage_table.csv").read_text()
        sim_rows = [l for l in text.splitlines() if ",sim," in l]
        assert sim_rows and ",-," in sim_rows[0]


class TestBuildConfig:
    def test_defaults_cover_all_library_scenarios(self):
        cfg = build_config({})
        assert {s.name for s in cfg.scenarios} == {
            "no_effect_no_censoring", "no_effect", "beneficial", "mixed",
        }
        assert cfg.replicates == 20 and cfg.k_draws == 100

    def test_overrides(self):
        cfg = build_config(
            {
                "scenarios": ["no_effect"],
                "replicates": 3,
                "n": 50,
                "mcmc": {"chains": 2, "samples": 150},
                "long_priors": {"beta0_mean": -1.0},
            }
        )
        assert cfg.scenarios[0].n == 50
        assert cfg.mcmc.samples == 150
        assert cfg.long_priors.beta0_mean == -1.0  # prior-sensitivity variant

    def test_inline_scenario(self):
        doc = {
            "scenarios": [
                {
                    "name": "custom",
                    "a0_0": -2.0, "a1_0": -2.0, "a0_x": 1.0, "a1_x": 1.0,
                    "a0_u": 0.0, "a1_u": 0.0,
                    "th0_0": 30.0, "th1_0": 30.0, "th0_x": 0.0, "th1_x": 0.0,
                    "th0_u": 0.0, "th1_u": 0.0,
                    "sigma": 2.4, "rho": 3.5, "follow_up": 15.0,
                    "visit_times": [3, 6], "n": 40,
                }
            ]
        }
        cfg = build_config(doc)
        assert cfg.scenarios[0].name == "custom"
        assert cfg.scenarios[0].th0_0 == 30.0

    @pytest.mark.parametrize(
        "doc, refused",
        [
            ({"replicate": 3}, "StudyConfig: unknown keys ['replicate']"),
            ({"mcmc": {"warmpu": 3}}, "McmcConfig: unknown keys ['warmpu']"),
            ({"mcmc": {"warmup": 2000}}, "McmcConfig: unknown keys ['warmup']"),
            ({"refit_weights_per_draw": False},
             "StudyConfig: unknown keys ['refit_weights_per_draw']"),
            ({"mcmc": {"seed": 1}}, "mcmc.seed is not read: fit seeds derive from master_seed "
                                    "(tbd fit: --seed)"),
            ({"survival_priors": {"lamda_mean": 0.1}}, "SurvivalPriors: unknown keys ['lamda_mean']"),
            ({"long_priors": {"beta0_men": -1.0}}, "LongPriors: unknown keys ['beta0_men']"),
            ({"scenarios": ["nope"]}, "unknown scenario 'nope'; known: ['beneficial', 'mixed', "
                                      "'no_effect', 'no_effect_no_censoring']"),
        ],
        ids=["top-level", "mcmc", "retired-warmup", "retired-refit", "mcmc-seed",
             "survival_priors", "long_priors", "scenario-name"],
    )
    def test_unknown_key_refused(self, doc, refused):
        with pytest.raises(ValueError, match=re.escape(refused)):
            build_config(doc)

    @pytest.mark.parametrize(
        "doc, refused",
        [
            ({"replicates": 2.5}, "StudyConfig.replicates: expected an integer, got 2.5"),
            ({"replicates": None}, "StudyConfig.replicates: expected an integer, got None"),
            ({"mcmc": {"min_ess": "many"}}, "McmcConfig.min_ess: could not convert string"),
            ({"long_priors": {"sigma_sd": None}}, "LongPriors.sigma_sd: expected a number, got None"),
        ],
        ids=["fraction", "null", "nested-string", "nested-null"],
    )
    def test_bad_value_names_its_field(self, doc, refused):
        with pytest.raises(ValueError, match=re.escape(refused)):
            build_config(doc)

    def test_int_and_float_spellings_hash_alike(self):
        def chash(doc):
            return build_config(doc).content_hash()

        assert chash({"mcmc": {"min_ess": 5}}) == chash({"mcmc": {"min_ess": 5.0}})
        assert chash({"grid_cutpoints": [0, 3, 6, 9, 12, 15]}) == chash(
            {"grid_cutpoints": [0.0, 3.0, 6.0, 9.0, 12.0, 15.0]}
        )
