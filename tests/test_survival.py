"""Per-segment exposures and deaths, closed-form survival quantities, and fit oracles."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from oracles import SurvivalParams, predict_s_mis, rmst_integral, survival_draw, survival_prob
from tbd.mcmc import McmcConfig
from tbd.science import ObservedDataset, ObservedPatient
from tbd.simulate import get_scenario, observe, simulate_science_table
from tbd.survival import (
    S_MIS_BLOCK,
    HazardGrid,
    SurvivalPosterior,
    SurvivalPriors,
    default_grid,
    _arm,
    fit_survival,
)

GRID = HazardGrid(cutpoints=(0.0, 3.0, 6.0, 9.0, 12.0, 15.0))


def _patient(t_obs, d_obs, w=0, x=(0.0,)):
    return ObservedPatient(id=0, x=x, w=w, t_obs=t_obs, d_obs=d_obs, y_obs={})


def _dataset(patients):
    return ObservedDataset(patients=tuple(patients), follow_up=15.0)


def _params(lam0, lam1=None, a0=0.0, a1=0.0, grid=GRID):
    def vec(v):
        return np.full(grid.n_segments, v, dtype=float) if np.isscalar(v) else np.asarray(v, dtype=float)

    l0 = vec(lam0)
    return SurvivalParams(
        grid=grid,
        lambda0=l0,
        lambda1=vec(lam1) if lam1 is not None else l0,
        alpha0=np.atleast_1d(float(a0)),
        alpha1=np.atleast_1d(float(a1)),
    )


class TestPoissonExpand:
    """The statistics of the Poisson form of the likelihood (Holford 1980):
    each patient's exposure per segment and each segment's death count."""

    def test_death_at_eight_spans_three_segments(self):
        arm = _arm(_dataset([_patient(8.0, 1)]), GRID, 0)
        assert arm.overlap.tolist() == [[3.0, 3.0, 2.0, 0.0, 0.0]]
        assert arm.events.tolist() == [0, 0, 1, 0, 0]

    def test_censored_patient_has_full_exposures_no_events(self):
        arm = _arm(_dataset([_patient(15.0, 0)]), GRID, 0)
        assert arm.overlap.tolist() == [[3.0] * 5]
        assert arm.events.tolist() == [0] * 5

    def test_exposure_and_event_conservation(self):
        data = observe(simulate_science_table(get_scenario("no_effect"), seed=1))
        grid = default_grid(15.0)
        for w in (0, 1):
            arm = _arm(data, grid, w)
            pats = [p for p in data.patients if p.w == w]
            assert arm.overlap.sum() == pytest.approx(sum(p.t_obs for p in pats))
            assert arm.events.sum() == sum(p.d_obs for p in pats)
            assert arm.sum_dx == pytest.approx(sum(p.x[0] for p in pats if p.d_obs == 1))
            for j in range(grid.n_segments):
                exposure, deaths = _exposure_and_deaths(data, grid, w, j)
                assert arm.overlap[:, j].sum() == pytest.approx(exposure, rel=1e-12)
                assert arm.events[j] == deaths

    def test_death_at_cutpoint_lands_in_left_segment(self):
        arm = _arm(_dataset([_patient(6.0, 1)]), GRID, 0)
        assert arm.overlap.tolist() == [[3.0, 3.0, 0.0, 0.0, 0.0]]
        assert arm.events.tolist() == [0, 1, 0, 0, 0]
        assert GRID.segment_of(np.array([3.0, 3.5, 15.0, 20.0])).tolist() == [0, 1, 4, 4]

    def test_grid_must_cover_follow_up(self):
        with pytest.raises(ValueError, match="grid ends at 10.0 but follow-up is 15.0"):
            fit_survival(_dataset([_patient(15.0, 0)]), HazardGrid((0.0, 10.0)),
                         SurvivalPriors(), McmcConfig(seed=0))


def _exposure_and_deaths(data, grid, w, j):
    """Arm w's total exposure and death count in segment j, by a plain loop."""
    lo, hi = grid.cutpoints[j], grid.cutpoints[j + 1]
    exposure = deaths = 0
    for p in data.patients:
        if p.w == w:
            exposure += max(0.0, min(p.t_obs, hi) - lo)
            deaths += p.d_obs == 1 and lo < p.t_obs <= hi
    return exposure, deaths


class TestClosedForms:
    def test_survival_at_zero_is_one(self):
        assert survival_prob(_params(0.035), (0.0,), 0, 0.0) == 1.0

    def test_constant_hazard_median(self):
        # ln 2 / 0.035 = 19.8 months; the grid extends its last rate
        assert survival_prob(_params(0.035), (0.0,), 0, 19.8) == pytest.approx(0.5, abs=1e-3)

    def test_constant_hazard_at_follow_up(self):
        assert survival_prob(_params(0.035), (0.0,), 0, 15.0) == pytest.approx(
            math.exp(-0.525), abs=1e-12
        )

    def test_rmst_constant_hazard(self):
        expected = (1 - math.exp(-0.525)) / 0.035
        assert rmst_integral(_params(0.035), (0.0,), 0, 15.0) == pytest.approx(
            expected, abs=1e-10
        )

    def test_rmst_zero_hazard_limit(self):
        assert rmst_integral(_params(1e-15), (0.0,), 0, 15.0) == pytest.approx(15.0)

    def test_rmst_at_zero(self):
        assert rmst_integral(_params(0.035), (0.0,), 0, 0.0) == 0.0

    def test_covariate_scales_hazard(self):
        p = _params(0.02, a0=0.7)
        s = survival_prob(p, (1.0,), 0, 12.0)
        assert s == pytest.approx(math.exp(-0.02 * math.exp(0.7) * 12.0))

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_adaptive_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(1e-4, 0.3, size=5)
        if seed % 5 == 0:
            lam[rng.integers(5)] = 10.0 ** -rng.uniform(9, 14)  # near-zero segment
        alpha = rng.normal(0, 0.5)
        x = (rng.normal(),)
        t = rng.uniform(0.0, 15.0)
        p = _params(lam, a0=alpha)
        surv = lambda u: survival_prob(p, x, 0, u)
        quad, _ = integrate.quad(
            surv, 0.0, t, points=list(GRID.cutpoints), limit=200,
            epsabs=1e-11, epsrel=1e-11,
        )
        assert rmst_integral(p, x, 0, t) == pytest.approx(quad, abs=1e-8)

    def test_survival_non_increasing_and_positive(self):
        rng = np.random.default_rng(5)
        p = _params(rng.uniform(0.01, 0.5, size=5), a0=0.3)
        ts = np.linspace(0, 20, 80)
        vals = [survival_prob(p, (0.7,), 0, t) for t in ts]
        assert all(v > 0 for v in vals)
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_rmst_bounded_and_monotone(self):
        p = _params([0.1, 0.2, 0.05, 0.3, 0.01])
        vals = [rmst_integral(p, (0.0,), 0, t) for t in np.linspace(0, 15, 40)]
        for t, v in zip(np.linspace(0, 15, 40), vals):
            assert 0.0 <= v <= t + 1e-12
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestPredictSMis:
    def test_survivor_uses_horizon(self):
        p = _patient(15.0, 0, w=1)
        params = _params(0.035, 0.035)
        assert predict_s_mis(params, p, 15.0) == pytest.approx(math.exp(-0.525), abs=1e-12)

    def test_death_uses_observed_time(self):
        p = _patient(8.0, 1, w=1)
        params = _params(0.035, 0.0001)
        assert predict_s_mis(params, p, 15.0) == pytest.approx(math.exp(-0.28), abs=1e-12)

    def test_zero_counterfactual_hazard_gives_one(self):
        p = _patient(15.0, 0, w=1)
        params = _params(1e-300, 0.035)
        assert predict_s_mis(params, p, 15.0) == pytest.approx(1.0)

    def test_death_after_horizon_counts_as_survivor(self):
        p = _patient(12.0, 1, w=1)
        params = _params(0.05, 0.05)
        # alive at t=9, so the horizon is 9 rather than t_obs
        assert predict_s_mis(params, p, 9.0) == pytest.approx(math.exp(-0.05 * 9))


def _random_posterior(k, seed=0):
    rng = np.random.default_rng(seed)
    return SurvivalPosterior(
        grid=default_grid(15.0),
        lambda0=rng.uniform(0.01, 0.2, size=(k, 5)),
        lambda1=rng.uniform(0.01, 0.2, size=(k, 5)),
        alpha0=rng.normal(0, 0.3, size=(k, 1)),
        alpha1=rng.normal(0, 0.3, size=(k, 1)),
        diagnostics={},
        converged=True,
    )


class TestSMisMatrix:
    data = observe(simulate_science_table(get_scenario("mixed"), seed=3))

    def test_matches_scalar_path(self):
        k, t = 7, 9.0
        post = _random_posterior(k)
        matrix = post.s_mis_matrix(self.data, t, np.arange(k))
        assert matrix.shape == (k, len(self.data))
        # dead patients are evaluated at their death time, not at t
        assert any(p.d_obs == 1 and p.t_obs <= t for p in self.data.patients)
        for kk in range(k):
            params = survival_draw(post, kk)
            for i, p in enumerate(self.data.patients):
                assert matrix[kk, i] == pytest.approx(predict_s_mis(params, p, t), abs=1e-12)

    @pytest.mark.parametrize("k", [1, S_MIS_BLOCK + 1, 2 * S_MIS_BLOCK - 1])
    @pytest.mark.parametrize("one_arm", [False, True], ids=["both-arms", "one-arm"])
    def test_mean_over_all_draws(self, k, one_arm):
        data = self.data
        if one_arm:  # nobody's counterfactual arm is 0: that group is empty
            data = ObservedDataset(
                patients=tuple(replace(p, w=0) for p in data.patients), follow_up=data.follow_up
            )
        post = _random_posterior(k, seed=k)
        for t in (3.0, 9.0, 15.0):
            mean = post.s_mis_matrix(data, t)
            assert mean.shape == (len(data),)
            expected = post.s_mis_matrix(data, t, np.arange(k)).mean(axis=0)
            np.testing.assert_allclose(mean, expected, rtol=0, atol=1e-14)

    def test_visit_sequence_stacks_one_visit_results(self):
        k = 2 * S_MIS_BLOCK + 40  # two full blocks and a partial third
        post = _random_posterior(k, seed=2)
        times, cols = self.data.visit_times, self.data.columns
        # deaths between visits give a patient a different horizon at each visit
        assert np.any((cols.d_obs == 1) & (cols.t_obs > times[0]) & (cols.t_obs < times[-1])
                      & ~np.isin(cols.t_obs, times))
        means = post.s_mis_matrix(self.data, times)
        assert means.shape == (len(times), len(self.data))
        assert np.array_equal(means, np.stack([post.s_mis_matrix(self.data, t) for t in times]))
        idx = np.arange(0, k, 3)
        rows = post.s_mis_matrix(self.data, times, idx)
        assert rows.shape == (len(times), len(idx), len(self.data))
        assert np.array_equal(rows, np.stack([post.s_mis_matrix(self.data, t, idx)
                                              for t in times]))

    def test_indices_select_rows_across_blocks(self):
        k, t = 3 * S_MIS_BLOCK, 6.0
        post = _random_posterior(k)
        rng = np.random.default_rng(1)
        # unsorted, with repeats, and longer than one block
        indices = np.concatenate([rng.permutation(k)[: S_MIS_BLOCK + 40], [5, 5, k - 1, 5]])
        rows = post.s_mis_matrix(self.data, t, indices)
        single = np.concatenate([post.s_mis_matrix(self.data, t, [i]) for i in indices])
        # a one-row matrix product may round differently in the last bit
        np.testing.assert_allclose(rows, single, rtol=0, atol=1e-15)


class TestFitSurvival:
    def test_conjugate_oracle_single_segment_no_covariates(self):
        data = observe(simulate_science_table(get_scenario("no_effect"), seed=1))
        stripped = ObservedDataset(
            patients=tuple(
                ObservedPatient(
                    id=p.id, x=(0.0,), w=p.w, t_obs=p.t_obs, d_obs=p.d_obs,
                    y_obs=p.y_obs,
                )
                for p in data.patients
            ),
            follow_up=data.follow_up,
        )
        grid = HazardGrid((0.0, 15.0))
        priors = SurvivalPriors(lambda_mean=0.035, lambda_sd=10.0, alpha_sd=1e-6)
        post = fit_survival(stripped, grid, priors, McmcConfig(seed=41))
        for w, lam in ((0, post.lambda0), (1, post.lambda1)):
            e, d = _exposure_and_deaths(stripped, grid, w, 0)
            shape = priors.gamma_shape + d
            rate = priors.gamma_rate + e
            assert lam[:, 0].mean() == pytest.approx(shape / rate, rel=0.02)
            assert lam[:, 0].std() == pytest.approx(math.sqrt(shape) / rate, rel=0.05)

    def test_prior_only_fit_recovers_prior(self):
        empty = ObservedDataset(patients=(), follow_up=15.0)
        priors = SurvivalPriors()
        post = fit_survival(empty, HazardGrid((0.0, 15.0)), priors, McmcConfig(seed=4))
        assert post.lambda0[:, 0].mean() == pytest.approx(priors.lambda_mean, rel=0.05)
        assert post.alpha0[:, 0].mean() == pytest.approx(0.0, abs=0.05)
        assert post.alpha0[:, 0].std() == pytest.approx(priors.alpha_sd, rel=0.05)

    def test_deterministic_given_seed(self):
        data = observe(
            simulate_science_table(get_scenario("no_effect").with_updates(n=60), seed=2)
        )
        grid = default_grid(15.0)
        cfg = McmcConfig(chains=2, samples=300, seed=5)
        a = fit_survival(data, grid, SurvivalPriors(), cfg)
        b = fit_survival(data, grid, SurvivalPriors(), cfg)
        assert np.array_equal(a.lambda0, b.lambda0)
        assert np.array_equal(a.alpha1, b.alpha1)

    def test_arms_draw_from_distinct_streams(self):
        # both arms hold the same patients, so shared streams would give
        # identical draws; distinct streams give two samples of one law
        data = observe(
            simulate_science_table(get_scenario("no_effect").with_updates(n=100), seed=3)
        )
        twins = ObservedDataset(
            patients=tuple(replace(p, w=w) for p in data.patients for w in (0, 1)),
            follow_up=data.follow_up,
        )
        post = fit_survival(twins, default_grid(15.0), SurvivalPriors(), McmcConfig(seed=5))
        assert not np.array_equal(post.alpha0, post.alpha1)
        assert not np.array_equal(post.lambda0, post.lambda1)
        sd = post.alpha0.std()
        assert post.alpha0.mean() == pytest.approx(post.alpha1.mean(), abs=0.1 * sd)
        assert post.alpha1.std() == pytest.approx(sd, rel=0.1)

    def test_covariate_free_segments_match_exact_gamma(self):
        # with x = 0 the rates do not depend on alpha, so each segment's
        # posterior is exactly Gamma(a + d_j, b + E_j)
        data = observe(simulate_science_table(get_scenario("mixed"), seed=8))
        stripped = ObservedDataset(
            patients=tuple(replace(p, x=(0.0,)) for p in data.patients),
            follow_up=data.follow_up,
        )
        grid = default_grid(15.0)
        priors = SurvivalPriors(lambda_mean=0.035, lambda_sd=0.035)
        post = fit_survival(stripped, grid, priors, McmcConfig(samples=5000, seed=12))
        k = post.n_draws
        for w, lam in ((0, post.lambda0), (1, post.lambda1)):
            for j in range(grid.n_segments):
                exposure, deaths = _exposure_and_deaths(stripped, grid, w, j)
                shape = priors.gamma_shape + deaths
                rate = priors.gamma_rate + exposure
                mean, sd = shape / rate, math.sqrt(shape) / rate
                assert lam[:, j].mean() == pytest.approx(mean, abs=4 * sd / math.sqrt(k))
                # sampling sd of a Gamma sample's sd: kurtosis 3 + 6 / shape
                assert lam[:, j].std() == pytest.approx(
                    sd, rel=4 * math.sqrt((2 + 6 / shape) / (4 * k))
                )
        assert post.converged
        assert np.allclose(post.alpha0.mean(), priors.alpha_mean, atol=0.05)

    def test_posterior_json_round_trip(self):
        rng = np.random.default_rng(1)
        post = SurvivalPosterior(
            grid=GRID,
            lambda0=rng.uniform(0.01, 0.1, size=(3, 5)),
            lambda1=rng.uniform(0.01, 0.1, size=(3, 5)),
            alpha0=rng.normal(size=(3, 1)),
            alpha1=rng.normal(size=(3, 1)),
            diagnostics={"lambda0_0[0]": {"rhat": 1.0, "ess": 400.0},
                         "alpha0[0]": {"rhat": math.nan, "ess": math.nan}},
            converged=True,
        )
        # a NaN diagnostic is written as a string, so the file is standard JSON
        text = json.dumps(post.to_json(), allow_nan=False)
        back = SurvivalPosterior.from_json(json.loads(text))
        assert np.array_equal(back.lambda0, post.lambda0)
        assert np.array_equal(back.alpha1, post.alpha1)
        assert back.grid == post.grid
        assert back.converged
        assert math.isnan(back.diagnostics["alpha0[0]"]["rhat"])
        assert back.diagnostics["lambda0_0[0]"] == {"rhat": 1.0, "ess": 400.0}


@pytest.mark.slow
def test_alpha_interval_covers_zero_effect_truth():
    # no covariate effect on survival in truth; the 95% interval for the
    # log-hazard ratio should cover 0 in most replicates
    params = get_scenario("no_effect").with_updates(th0_x=0.0, th1_x=0.0, n=150)
    grid = default_grid(15.0)
    covered = 0
    reps = 25
    for rep in range(reps):
        data = observe(simulate_science_table(params, seed=900 + rep))
        post = fit_survival(
            data, grid, SurvivalPriors(), McmcConfig(chains=2, samples=500, seed=rep)
        )
        for alpha in (post.alpha0, post.alpha1):
            lo, hi = np.percentile(alpha[:, 0], [2.5, 97.5])
            covered += lo <= 0.0 <= hi
    assert covered >= 0.8 * 2 * reps
