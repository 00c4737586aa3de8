"""Study driver: determinism, caching, failure isolation, and reports."""

import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from tbd import study
from tbd.estimators import EstimandSummary
from tbd.longitudinal import LongitudinalFitError, compute_weights
from tbd.metrics import BiasCoverage, bias_and_coverage

from tbd.mcmc import McmcConfig
from tbd.simulate import TruthRecord, get_scenario, observe, simulate_science_table
from tbd.survival import S_MIS_BLOCK, SurvivalPosterior, default_grid
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


def test_fit_posteriors_weights_every_visit_by_its_own_mean(monkeypatch):
    # the weights of all visits come from one s_mis_matrix traversal; each
    # must have the bits of the one-visit mean at its visit
    data = observe(simulate_science_table(get_scenario("mixed"), seed=3))
    times, cols = data.visit_times, data.columns
    assert np.any((cols.d_obs == 1) & (cols.t_obs > times[0]) & (cols.t_obs < times[-1])
                  & ~np.isin(cols.t_obs, times))  # deaths between visits
    k = 2 * S_MIS_BLOCK + 40
    rng = np.random.default_rng(4)
    spost = SurvivalPosterior(
        grid=default_grid(15.0), lambda0=rng.uniform(0.01, 0.2, size=(k, 5)),
        lambda1=rng.uniform(0.01, 0.2, size=(k, 5)), alpha0=rng.normal(0, 0.3, size=(k, 1)),
        alpha1=rng.normal(0, 0.3, size=(k, 1)), diagnostics={}, converged=True,
    )
    seen = {}

    def record_weights(data, t, weights, priors, cfg):
        seen[t] = weights
        raise LongitudinalFitError("not fitted here")

    monkeypatch.setattr(study, "fit_survival", lambda *args: spost)
    monkeypatch.setattr(study, "fit_longitudinal", record_weights)
    fits = study.fit_posteriors(data, _config(), "weights")
    assert fits.survival is spost and list(fits.failures) == list(times)
    assert list(seen) == list(times)
    for t in times:
        assert np.array_equal(seen[t], compute_weights(spost.s_mis_matrix(data, t), data, t)), t


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


def _handmade_slice(truth, death_pct, failure=None, **summaries):
    """A scored slice: each summary is (median, lo95, hi95, frac_undefined)."""
    summaries = {k: EstimandSummary(*s, n_draws=10) for k, s in summaries.items()}
    return CellTimeResult(
        time=truth.time, truth=truth, summaries=summaries,
        bias_coverage={k: bias_and_coverage(s, getattr(truth, k)) for k, s in summaries.items()},
        naive=0.25, wmw=0.5, death_pct=death_pct, mae=None if failure else 0.75,
        failed=failure is not None, failure=failure,
    )


def _handmade_results():
    inf, undefined = math.inf, (None, None, None, 1.0)
    lost = "longitudinal fit: arm 1 has nobody alive and measured"
    b0 = CellResult("b", 0, ibs=0.125, cdauc=0.75, survival_rhat=1.0, times=[
        _handmade_slice(TruthRecord(3.0, 1.0, 0.5, 0.0, 0.25, 0.1, 0.2, 8), 10.0,
                        sace=(1.5, 0.5, 2.5, 0.0), pc=(0.5, 0.25, 0.75, 0.0),
                        sim=(-1.0, -2.0, -0.5, 0.0), rmst=(0.25, 0.0, 0.5, 0.0)),
        _handmade_slice(TruthRecord(9.0, 2.0, 0.75, inf, -0.5, 0.3, 0.4, 4), 30.0, lost,
                        rmst=(-0.25, -1.0, 0.5, 0.0)),
    ])
    b1 = CellResult("b", 1, ibs=None, cdauc=None, survival_rhat=1.01, times=[
        # an empty always-survivor stratum, and a median undefined in every draw
        _handmade_slice(TruthRecord(3.0, None, 0.25, 0.5, 0.75, 0.2, 0.2, 0), 20.0,
                        sace=undefined, pc=(0.25, 0.0, 0.5, 0.0), sim=undefined,
                        rmst=(1.25, 1.0, 1.5, 0.0)),
        _handmade_slice(TruthRecord(9.0, 3.0, 0.5, inf, 0.5, 0.4, 0.4, 2), 40.0,
                        sace=(2.0, 1.0, 4.0, 0.0), pc=(0.5, 0.25, 0.75, 0.0),
                        sim=(1.0, 0.5, 2.0, 0.25), rmst=(0.5, 0.25, 0.75, 0.0)),
    ])
    a0 = CellResult("a", 0, ibs=0.0625, cdauc=0.5, survival_rhat=1.0, times=[
        _handmade_slice(TruthRecord(3.0, 0.0, 0.5, 0.0, 0.0, 0.05, 0.05, 9), 5.0,
                        sace=(0.0, -1.0, 1.0, 0.0), pc=(0.0, -1.0, 1.0, 0.0),
                        sim=(0.0, -1.0, 1.0, 0.0), rmst=(0.0, -1.0, 1.0, 0.0)),
        _handmade_slice(TruthRecord(9.0, 0.0, 0.5, 0.0, 0.0, 0.15, 0.15, 7), 15.0, lost,
                        rmst=(0.0, -0.5, 0.5, 0.0)),
    ])
    a1 = CellResult("a", 1, times=[], failed=True, failure="survival fit: did not converge")
    return study.StudyResults(config_hash="0123456789abcdef", cells=[b0, b1, a0, a1])


# the four report files of _handmade_results, pinned byte for byte (csv rows end in \r\n)
HANDMADE_REPORT = {
    "coverage_table.csv": """\
scenario,time,estimand,truth,coverage_pct,n_cells,n_undefined,n_failed,death_pct_min,death_pct_max
a,3.0000,sace,0.0000,100.0000,1.0000,0.0000,0.0000,5.0000,5.0000
a,3.0000,pc,0.5000,100.0000,1.0000,0.0000,0.0000,5.0000,5.0000
a,3.0000,sim,0.0000,100.0000,1.0000,0.0000,0.0000,5.0000,5.0000
a,3.0000,rmst,0.0000,100.0000,1.0000,0.0000,0.0000,5.0000,5.0000
a,9.0000,sace,-,-,0.0000,0.0000,1.0000,15.0000,15.0000
a,9.0000,pc,-,-,0.0000,0.0000,1.0000,15.0000,15.0000
a,9.0000,sim,-,-,0.0000,0.0000,1.0000,15.0000,15.0000
a,9.0000,rmst,0.0000,100.0000,1.0000,0.0000,0.0000,15.0000,15.0000
b,3.0000,sace,1.0000,100.0000,1.0000,1.0000,0.0000,10.0000,20.0000
b,3.0000,pc,0.3750,100.0000,2.0000,0.0000,0.0000,10.0000,20.0000
b,3.0000,sim,0.0000,0.0000,1.0000,1.0000,0.0000,10.0000,20.0000
b,3.0000,rmst,0.5000,50.0000,2.0000,0.0000,0.0000,10.0000,20.0000
b,9.0000,sace,3.0000,100.0000,1.0000,0.0000,1.0000,30.0000,40.0000
b,9.0000,pc,0.5000,100.0000,1.0000,0.0000,1.0000,30.0000,40.0000
b,9.0000,sim,-,-,0.0000,1.0000,1.0000,30.0000,40.0000
b,9.0000,rmst,0.0000,100.0000,2.0000,0.0000,0.0000,30.0000,40.0000
""",
    "bias_table.csv": """\
scenario,time,estimand,truth,bias_lo,bias_hi,bias_min,bias_max,bias_mean,n_cells
a,3.0000,sace,0.0000,0.0000,0.0000,0.0000,0.0000,0.0000,1.0000
a,3.0000,pc,0.5000,-0.5000,-0.5000,-0.5000,-0.5000,-0.5000,1.0000
a,3.0000,sim,0.0000,0.0000,0.0000,0.0000,0.0000,0.0000,1.0000
a,3.0000,rmst,0.0000,0.0000,0.0000,0.0000,0.0000,0.0000,1.0000
a,9.0000,sace,-,-,-,-,-,-,0.0000
a,9.0000,pc,-,-,-,-,-,-,0.0000
a,9.0000,sim,-,-,-,-,-,-,0.0000
a,9.0000,rmst,0.0000,0.0000,0.0000,0.0000,0.0000,0.0000,1.0000
b,3.0000,sace,1.0000,0.5000,0.5000,0.5000,0.5000,0.5000,1.0000
b,3.0000,pc,0.3750,0.0000,0.0000,0.0000,0.0000,0.0000,2.0000
b,3.0000,sim,0.0000,-1.0000,-1.0000,-1.0000,-1.0000,-1.0000,1.0000
b,3.0000,rmst,0.5000,0.0125,0.4875,0.0000,0.5000,0.2500,2.0000
b,9.0000,sace,3.0000,-1.0000,-1.0000,-1.0000,-1.0000,-1.0000,1.0000
b,9.0000,pc,0.5000,0.0000,0.0000,0.0000,0.0000,0.0000,1.0000
b,9.0000,sim,-,-,-,-,-,-,0.0000
b,9.0000,rmst,0.0000,0.0063,0.2437,0.0000,0.2500,0.1250,2.0000
""",
    "figure_data.csv": """\
scenario,time,estimand,truth,median,lo95,hi95,frac_undefined
a,3.0000,sace,0.0000,0.0000,-1.0000,1.0000,0.0000
a,3.0000,pc,0.5000,0.0000,-1.0000,1.0000,0.0000
a,3.0000,sim,0.0000,0.0000,-1.0000,1.0000,0.0000
a,3.0000,rmst,0.0000,0.0000,-1.0000,1.0000,0.0000
a,9.0000,sace,-,-,-,-,-
a,9.0000,pc,-,-,-,-,-
a,9.0000,sim,-,-,-,-,-
a,9.0000,rmst,0.0000,0.0000,-0.5000,0.5000,0.0000
b,3.0000,sace,1.0000,1.5000,0.5000,2.5000,0.5000
b,3.0000,pc,0.3750,0.3750,0.1250,0.6250,0.0000
b,3.0000,sim,0.0000,-1.0000,-2.0000,-0.5000,0.5000
b,3.0000,rmst,0.5000,0.7500,0.5000,1.0000,0.0000
b,9.0000,sace,3.0000,2.0000,1.0000,4.0000,0.0000
b,9.0000,pc,0.5000,0.5000,0.2500,0.7500,0.0000
b,9.0000,sim,-,1.0000,0.5000,2.0000,0.2500
b,9.0000,rmst,0.0000,0.1250,-0.3750,0.6250,0.0000
""",
    "metrics.csv": """\
scenario,replicate,time,estimand,truth,median,lo95,hi95,bias,covered,death_pct,mae,ibs,cdauc
b,0.0000,3.0000,sace,1.0000,1.5000,0.5000,2.5000,0.5000,1,10.0000,0.7500,0.1250,0.7500
b,0.0000,3.0000,pc,0.5000,0.5000,0.2500,0.7500,0.0000,1,10.0000,0.7500,0.1250,0.7500
b,0.0000,3.0000,sim,0.0000,-1.0000,-2.0000,-0.5000,-1.0000,0,10.0000,0.7500,0.1250,0.7500
b,0.0000,3.0000,rmst,0.2500,0.2500,0.0000,0.5000,0.0000,1,10.0000,0.7500,0.1250,0.7500
b,0.0000,3.0000,naive_reference_biased,-,0.2500,-,-,-,-,10.0000,0.7500,0.1250,0.7500
b,0.0000,3.0000,wmw_reference,-,0.5000,-,-,-,-,10.0000,0.7500,0.1250,0.7500
b,0.0000,9.0000,sace,-,-,-,-,-,-,30.0000,-,0.1250,0.7500
b,0.0000,9.0000,pc,-,-,-,-,-,-,30.0000,-,0.1250,0.7500
b,0.0000,9.0000,sim,-,-,-,-,-,-,30.0000,-,0.1250,0.7500
b,0.0000,9.0000,rmst,-0.5000,-0.2500,-1.0000,0.5000,0.2500,1,30.0000,-,0.1250,0.7500
b,0.0000,9.0000,naive_reference_biased,-,0.2500,-,-,-,-,30.0000,-,0.1250,0.7500
b,0.0000,9.0000,wmw_reference,-,0.5000,-,-,-,-,30.0000,-,0.1250,0.7500
b,1.0000,3.0000,sace,-,-,-,-,-,-,20.0000,0.7500,-,-
b,1.0000,3.0000,pc,0.2500,0.2500,0.0000,0.5000,0.0000,1,20.0000,0.7500,-,-
b,1.0000,3.0000,sim,0.5000,-,-,-,-,-,20.0000,0.7500,-,-
b,1.0000,3.0000,rmst,0.7500,1.2500,1.0000,1.5000,0.5000,0,20.0000,0.7500,-,-
b,1.0000,3.0000,naive_reference_biased,-,0.2500,-,-,-,-,20.0000,0.7500,-,-
b,1.0000,3.0000,wmw_reference,-,0.5000,-,-,-,-,20.0000,0.7500,-,-
b,1.0000,9.0000,sace,3.0000,2.0000,1.0000,4.0000,-1.0000,1,40.0000,0.7500,-,-
b,1.0000,9.0000,pc,0.5000,0.5000,0.2500,0.7500,0.0000,1,40.0000,0.7500,-,-
b,1.0000,9.0000,sim,inf,1.0000,0.5000,2.0000,-,-,40.0000,0.7500,-,-
b,1.0000,9.0000,rmst,0.5000,0.5000,0.2500,0.7500,0.0000,1,40.0000,0.7500,-,-
b,1.0000,9.0000,naive_reference_biased,-,0.2500,-,-,-,-,40.0000,0.7500,-,-
b,1.0000,9.0000,wmw_reference,-,0.5000,-,-,-,-,40.0000,0.7500,-,-
a,0.0000,3.0000,sace,0.0000,0.0000,-1.0000,1.0000,0.0000,1,5.0000,0.7500,0.0625,0.5000
a,0.0000,3.0000,pc,0.5000,0.0000,-1.0000,1.0000,-0.5000,1,5.0000,0.7500,0.0625,0.5000
a,0.0000,3.0000,sim,0.0000,0.0000,-1.0000,1.0000,0.0000,1,5.0000,0.7500,0.0625,0.5000
a,0.0000,3.0000,rmst,0.0000,0.0000,-1.0000,1.0000,0.0000,1,5.0000,0.7500,0.0625,0.5000
a,0.0000,3.0000,naive_reference_biased,-,0.2500,-,-,-,-,5.0000,0.7500,0.0625,0.5000
a,0.0000,3.0000,wmw_reference,-,0.5000,-,-,-,-,5.0000,0.7500,0.0625,0.5000
a,0.0000,9.0000,sace,-,-,-,-,-,-,15.0000,-,0.0625,0.5000
a,0.0000,9.0000,pc,-,-,-,-,-,-,15.0000,-,0.0625,0.5000
a,0.0000,9.0000,sim,-,-,-,-,-,-,15.0000,-,0.0625,0.5000
a,0.0000,9.0000,rmst,0.0000,0.0000,-0.5000,0.5000,0.0000,1,15.0000,-,0.0625,0.5000
a,0.0000,9.0000,naive_reference_biased,-,0.2500,-,-,-,-,15.0000,-,0.0625,0.5000
a,0.0000,9.0000,wmw_reference,-,0.5000,-,-,-,-,15.0000,-,0.0625,0.5000
""",
}


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

    def test_handmade_tables_row_by_row(self, tmp_path):
        # no fitting: scenarios out of order, visits whose longitudinal fit
        # failed (RMST only), an undefined truth, an all-undefined estimate,
        # an infinite truth and a cell whose survival fit failed
        results = _handmade_results()
        nan = math.nan
        expected = {
            coverage_rows: [
                ("a", 3.0, "sace", 0.0, 100.0, 1, 0, 0, 5.0, 5.0),
                ("a", 3.0, "pc", 0.5, 100.0, 1, 0, 0, 5.0, 5.0),
                ("a", 3.0, "sim", 0.0, 100.0, 1, 0, 0, 5.0, 5.0),
                ("a", 3.0, "rmst", 0.0, 100.0, 1, 0, 0, 5.0, 5.0),
                ("a", 9.0, "sace", None, None, 0, 0, 1, 15.0, 15.0),
                ("a", 9.0, "pc", None, None, 0, 0, 1, 15.0, 15.0),
                ("a", 9.0, "sim", None, None, 0, 0, 1, 15.0, 15.0),
                ("a", 9.0, "rmst", 0.0, 100.0, 1, 0, 0, 15.0, 15.0),
                ("b", 3.0, "sace", 1.0, 100.0, 1, 1, 0, 10.0, 20.0),
                ("b", 3.0, "pc", 0.375, 100.0, 2, 0, 0, 10.0, 20.0),
                ("b", 3.0, "sim", 0.0, 0.0, 1, 1, 0, 10.0, 20.0),
                ("b", 3.0, "rmst", 0.5, 50.0, 2, 0, 0, 10.0, 20.0),
                ("b", 9.0, "sace", 3.0, 100.0, 1, 0, 1, 30.0, 40.0),
                ("b", 9.0, "pc", 0.5, 100.0, 1, 0, 1, 30.0, 40.0),
                ("b", 9.0, "sim", None, None, 0, 1, 1, 30.0, 40.0),
                ("b", 9.0, "rmst", 0.0, 100.0, 2, 0, 0, 30.0, 40.0),
            ],
            # truth, then the 2.5/97.5 percentiles, extremes and mean of the bias
            study.bias_rows: [
                ("a", 3.0, "sace", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1),
                ("a", 3.0, "pc", 0.5, -0.5, -0.5, -0.5, -0.5, -0.5, 1),
                ("a", 3.0, "sim", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1),
                ("a", 3.0, "rmst", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1),
                ("a", 9.0, "sace", None, None, None, None, None, None, 0),
                ("a", 9.0, "pc", None, None, None, None, None, None, 0),
                ("a", 9.0, "sim", None, None, None, None, None, None, 0),
                ("a", 9.0, "rmst", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1),
                ("b", 3.0, "sace", 1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 1),
                ("b", 3.0, "pc", 0.375, 0.0, 0.0, 0.0, 0.0, 0.0, 2),
                ("b", 3.0, "sim", 0.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1),
                ("b", 3.0, "rmst", 0.5, 0.0125, 0.4875, 0.0, 0.5, 0.25, 2),
                ("b", 9.0, "sace", 3.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1),
                ("b", 9.0, "pc", 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 1),
                ("b", 9.0, "sim", None, None, None, None, None, None, 0),
                ("b", 9.0, "rmst", 0.0, 0.00625, 0.24375, 0.0, 0.25, 0.125, 2),
            ],
            # median truth, medians of the posterior median and bounds, mean
            # share of undefined draws (NaN where no slice computed it)
            study.figure_rows: [
                ("a", 3.0, "sace", 0.0, 0.0, -1.0, 1.0, 0.0),
                ("a", 3.0, "pc", 0.5, 0.0, -1.0, 1.0, 0.0),
                ("a", 3.0, "sim", 0.0, 0.0, -1.0, 1.0, 0.0),
                ("a", 3.0, "rmst", 0.0, 0.0, -1.0, 1.0, 0.0),
                ("a", 9.0, "sace", None, None, None, None, nan),
                ("a", 9.0, "pc", None, None, None, None, nan),
                ("a", 9.0, "sim", None, None, None, None, nan),
                ("a", 9.0, "rmst", 0.0, 0.0, -0.5, 0.5, 0.0),
                ("b", 3.0, "sace", 1.0, 1.5, 0.5, 2.5, 0.5),
                ("b", 3.0, "pc", 0.375, 0.375, 0.125, 0.625, 0.0),
                ("b", 3.0, "sim", 0.0, -1.0, -2.0, -0.5, 0.5),
                ("b", 3.0, "rmst", 0.5, 0.75, 0.5, 1.0, 0.0),
                ("b", 9.0, "sace", 3.0, 2.0, 1.0, 4.0, 0.0),
                ("b", 9.0, "pc", 0.5, 0.5, 0.25, 0.75, 0.0),
                ("b", 9.0, "sim", None, 1.0, 0.5, 2.0, 0.25),
                ("b", 9.0, "rmst", 0.0, 0.125, -0.375, 0.625, 0.0),
            ],
        }
        for table, rows in expected.items():
            got = [tuple(row.values()) for row in table(results)]
            assert len(got) == len(rows), table.__name__
            for g, want in zip(got, rows):
                assert g == pytest.approx(want, nan_ok=True), (table.__name__, want)

        emit_report(results, tmp_path)
        for name, text in HANDMADE_REPORT.items():
            assert (tmp_path / name).read_bytes() == text.replace("\n", "\r\n").encode(), name


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
