"""Stratum weights, counterfactual prediction, and longitudinal fit oracles."""

import math

import numpy as np
import pytest
from scipy import integrate

from oracles import LongParams, SurvivalParams, predict_s_mis, predict_y_mis
from tbd.longitudinal import (
    LongitudinalFitError,
    LongPriors,
    compute_weights,
    counterfactual_mean,
    fit_longitudinal,
    LongitudinalPosterior,
    VisitModel,
)
from tbd.mcmc import Block, McmcConfig, ModelSpec, run_chains
from tbd.science import ObservedDataset, ObservedPatient
from tbd.simulate import get_scenario, observe, simulate_science_table
from tbd.survival import HazardGrid


def _sparams(lam0, lam1, grid=HazardGrid((0.0, 15.0))):
    j = grid.n_segments
    return SurvivalParams(
        grid=grid,
        lambda0=np.full(j, lam0),
        lambda1=np.full(j, lam1),
        alpha0=np.zeros(1),
        alpha1=np.zeros(1),
    )


def _obs(id=0, w=0, t_obs=15.0, d_obs=0, y_obs=None, x=(0.0,)):
    return ObservedPatient(
        id=id, x=x, w=w, t_obs=t_obs, d_obs=d_obs,
        y_obs={3.0: -1.0, 12.0: -2.0} if y_obs is None else y_obs,
    )


class TestComputeWeights:
    def test_death_before_horizon_gets_zero(self):
        data = ObservedDataset(
            patients=(_obs(w=1, t_obs=8.0, d_obs=1, y_obs={3.0: -1.0}),), follow_up=15.0
        )
        draw = _sparams(0.05, 0.05)
        w = compute_weights([predict_s_mis(draw, p, 12.0) for p in data.patients], data, 12.0)
        assert w.tolist() == [0.0]

    def test_survivor_gets_counterfactual_probability(self):
        data = ObservedDataset(patients=(_obs(w=1),), follow_up=15.0)
        draw = _sparams(0.05, 0.1)
        w = compute_weights([predict_s_mis(draw, p, 12.0) for p in data.patients], data, 12.0)
        assert w[0] == pytest.approx(math.exp(-0.05 * 12))

    def test_zero_counterfactual_hazard_gives_weight_one(self):
        data = ObservedDataset(patients=(_obs(w=1),), follow_up=15.0)
        draw = _sparams(1e-300, 0.1)
        w = compute_weights([predict_s_mis(draw, p, 12.0) for p in data.patients], data, 12.0)
        assert w[0] == pytest.approx(1.0)

    def test_missing_measurement_gets_zero(self):
        data = ObservedDataset(
            patients=(_obs(w=0, y_obs={3.0: -1.0}),), follow_up=15.0
        )
        draw = _sparams(0.05, 0.05)
        w = compute_weights([predict_s_mis(draw, p, 12.0) for p in data.patients], data, 12.0)
        assert w.tolist() == [0.0]


class TestPredictYMis:
    def test_counterfactual_arm_mean(self):
        params = LongParams(beta0=np.array([-12.0, -6.0]), beta1=np.array([[2.0], [1.0]]), sigma=0.7)
        patient = _obs(w=1, x=(1.0,))
        mu, sigma = predict_y_mis(params, patient, 12.0)
        assert mu == pytest.approx(-10.0)
        assert sigma == 0.7

    def test_identical_arms_match_own_fit(self):
        params = LongParams(beta0=np.array([-3.0, -3.0]), beta1=np.array([[1.2], [1.2]]), sigma=0.5)
        patient = _obs(w=0, x=(0.4,))
        mu, _ = predict_y_mis(params, patient, 12.0)
        assert mu == pytest.approx(params.mean(patient.x, 0))

    def test_counterfactual_mean_of_draws_and_of_one_set(self):
        rng = np.random.default_rng(5)
        beta0, beta1 = rng.normal(size=(6, 2)), rng.normal(size=(6, 2, 3))
        x, w = rng.normal(size=(9, 3)), rng.integers(0, 2, size=9)
        stacked = counterfactual_mean(beta0, beta1, x, w)
        assert stacked.shape == (6, 9)
        for k in range(6):
            # one set gives the same bits as its row of the stack
            assert np.array_equal(counterfactual_mean(beta0[k], beta1[k], x, w), stacked[k])
            params = LongParams(beta0=beta0[k], beta1=beta1[k], sigma=1.0)
            expected = [params.mean(x[i], 1 - w[i]) for i in range(9)]
            assert stacked[k] == pytest.approx(expected, abs=1e-12)


class TestFitLongitudinal:
    def test_flat_prior_matches_weighted_least_squares(self):
        rng = np.random.default_rng(7)
        pats = []
        for i in range(120):
            x = rng.normal()
            w = i % 2
            y = (-4.0 if w == 0 else -1.0) + 2.0 * x + rng.normal(0, 1.5)
            pats.append(_obs(id=i, w=w, y_obs={9.0: y}, x=(x,)))
        data = ObservedDataset(patients=tuple(pats), follow_up=15.0)
        weights = rng.uniform(0.2, 1.0, size=len(data))
        flat = LongPriors(beta0_mean=0, beta0_sd=1e4, beta1_mean=0, beta1_sd=1e4, sigma_sd=1e4)
        post = fit_longitudinal(data, 9.0, weights, flat, McmcConfig(seed=11))
        for arm in (0, 1):
            rows = [(p.x[0], p.y_obs[9.0], wi) for p, wi in zip(data.patients, weights) if p.w == arm]
            X = np.array([[1.0, x] for x, _, _ in rows])
            y = np.array([v for _, v, _ in rows])
            wv = np.array([wi for _, _, wi in rows])
            beta = np.linalg.solve(X.T @ (wv[:, None] * X), X.T @ (wv * y))
            assert post.beta0[:, arm].mean() == pytest.approx(beta[0], rel=0.02, abs=0.05)
            assert post.beta1[:, arm, 0].mean() == pytest.approx(beta[1], rel=0.02, abs=0.05)

    def test_zero_weight_arm_raises_with_arm_and_time(self):
        pats = [_obs(id=i, w=1, y_obs={6.0: -1.0}) for i in range(10)]
        data = ObservedDataset(patients=tuple(pats), follow_up=15.0)
        with pytest.raises(LongitudinalFitError, match="arm 0.*t=6"):
            fit_longitudinal(data, 6.0, np.ones(10), LongPriors(), McmcConfig(seed=0))

    def test_positive_weight_on_unmeasured_patient_raises(self):
        pats = [_obs(id=i, w=i % 2, y_obs={6.0: -1.0}) for i in range(10)]
        pats[3] = _obs(id=3, w=1, y_obs={})
        data = ObservedDataset(patients=tuple(pats), follow_up=15.0)
        with pytest.raises(ValueError, match="no measurement at t=6"):
            fit_longitudinal(data, 6.0, np.ones(10), LongPriors(), McmcConfig(seed=0))

    def test_prior_recovery_without_likelihood(self):
        # engine-level check with the longitudinal prior structure: with the
        # likelihood disabled the posterior must reproduce the prior
        priors = LongPriors(beta0_mean=-2.0, beta0_sd=3.0, beta1_sd=100.0, sigma_sd=100.0)
        model = ModelSpec(
            blocks=(Block("beta0", 1), Block("sigma", 1, positive=True)),
            log_prior=lambda p: (
                -0.5 * ((p["beta0"][:, 0] - priors.beta0_mean) / priors.beta0_sd) ** 2
                - 0.5 * (p["sigma"][:, 0] / priors.sigma_sd) ** 2
            ),
            log_likelihood=lambda p: np.zeros(len(p["sigma"])),
            initial=lambda rng, c: {
                "beta0": rng.normal(-2, 3, size=(c, 1)),
                "sigma": np.exp(rng.normal(3, 1, size=(c, 1))),
            },
        )
        res = run_chains(model, McmcConfig(chains=4, samples=4000, seed=13), warmup=2000)
        beta0 = res.pooled("beta0")[:, 0]
        sigma = res.pooled("sigma")[:, 0]
        assert beta0.mean() == pytest.approx(-2.0, abs=0.05 * 3)
        assert beta0.std() == pytest.approx(3.0, rel=0.05)
        half_normal_mean = 100.0 * math.sqrt(2 / math.pi)
        assert sigma.mean() == pytest.approx(half_normal_mean, rel=0.05)

    def test_posterior_json_round_trip(self):
        rng = np.random.default_rng(2)
        post = LongitudinalPosterior(
            t=9.0,
            beta0=rng.normal(size=(4, 2)),
            beta1=rng.normal(size=(4, 2, 1)),
            sigma=np.abs(rng.normal(1, 0.1, size=4)),
            diagnostics={"sigma[0]": {"rhat": 1.0, "ess": 500.0}},
            converged=True,
        )
        back = LongitudinalPosterior.from_json(post.to_json())
        assert np.allclose(back.beta0, post.beta0)
        assert np.allclose(back.beta1, post.beta1)
        assert back.t == 9.0


class TestGriddySampler:
    """Oracles for the closed-form pieces behind ``fit_longitudinal``."""

    PRIORS = LongPriors(beta0_mean=-1.0, beta0_sd=2.0, beta1_mean=0.5, beta1_sd=1.5, sigma_sd=5.0)

    def _data(self, n=24, seed=4):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 1))
        arm = np.arange(n) % 2
        y = np.where(arm == 1, -0.5, -2.0) + 1.2 * x[:, 0] + rng.normal(0, 1.4, size=n)
        wgt = rng.uniform(0.2, 1.0, size=n)
        return x, y, arm, wgt

    def _prior(self):
        pr = self.PRIORS
        return np.array([pr.beta0_mean, pr.beta1_mean]), np.array([pr.beta0_sd, pr.beta1_sd])

    def test_beta_given_sigma_matches_closed_form_gaussian(self):
        x, y, arm, wgt = self._data()
        model = VisitModel.build(x, y, arm, wgt, self.PRIORS)
        sigma = 1.7
        k = 40_000
        beta0, beta1 = model.draw_beta(np.full(k, sigma), np.random.default_rng(0))
        m0, s0 = self._prior()
        for w in (0, 1):
            sel = arm == w
            design = np.column_stack([np.ones(sel.sum()), x[sel]])
            prec = design.T @ (wgt[sel, None] * design) / sigma**2 + np.diag(s0**-2.0)
            cov = np.linalg.inv(prec)
            mean = cov @ (design.T @ (wgt[sel] * y[sel]) / sigma**2 + m0 / s0**2)
            draws = np.column_stack([beta0[:, w], beta1[:, w, 0]])
            se = np.sqrt(np.diag(cov) / k)
            assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se)
            scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
            assert np.all(np.abs(np.cov(draws.T) - cov) < 0.03 * scale)

    def _log_joint_marginal(self, x, y, arm, wgt, sigma):
        """log of the unnormalised joint integrated over each arm's
        coefficients by 2-D quadrature, up to a sigma-free constant."""
        m0, s0 = self._prior()
        total = -0.5 * (sigma / self.PRIORS.sigma_sd) ** 2
        for w in (0, 1):
            sel = arm == w
            xs, ys, ws = x[sel, 0], y[sel], wgt[sel]
            design = np.column_stack([np.ones(sel.sum()), xs])
            prec = design.T @ (ws[:, None] * design) / sigma**2 + np.diag(s0**-2.0)
            centre = np.linalg.solve(prec, design.T @ (ws * ys) / sigma**2 + m0 / s0**2)
            half = 10 * np.sqrt(np.diag(np.linalg.inv(prec)))

            def log_f(b0, b1):
                resid = ys - b0 - b1 * xs
                loglik = np.sum(ws * (-np.log(sigma) - resid**2 / (2 * sigma**2)))
                logprior = -0.5 * (((b0 - m0[0]) / s0[0]) ** 2 + ((b1 - m0[1]) / s0[1]) ** 2)
                return loglik + logprior

            offset = log_f(*centre)
            value, _ = integrate.dblquad(
                lambda b1, b0: math.exp(log_f(b0, b1) - offset),
                centre[0] - half[0], centre[0] + half[0],
                centre[1] - half[1], centre[1] + half[1],
                epsabs=0, epsrel=1e-8,
            )
            total += offset + math.log(value)
        return total

    def test_sigma_marginal_matches_quadrature_of_the_joint(self):
        x, y, arm, wgt = self._data(n=12)
        model = VisitModel.build(x, y, arm, wgt, self.PRIORS)
        sigmas = [0.7, 1.5, 3.0]
        closed = model.log_sigma_marginal(np.array(sigmas))
        quad = np.array([self._log_joint_marginal(x, y, arm, wgt, s) for s in sigmas])
        assert np.allclose(closed - closed[0], quad - quad[0], atol=1e-6)

    def test_sigma_draws_match_quadrature_moments(self):
        x, y, arm, wgt = self._data()
        model = VisitModel.build(x, y, arm, wgt, self.PRIORS)
        lo, hi = 0.05, 50.0
        peak = model.log_sigma_marginal(np.exp(np.linspace(math.log(lo), math.log(hi), 2001))).max()

        def moment(k):
            f = lambda s: s**k * math.exp(float(model.log_sigma_marginal(s)) - peak)
            return integrate.quad(f, lo, hi, points=[1.0, 2.0], limit=200, epsrel=1e-10)[0]

        mass = moment(0)
        mean = moment(1) / mass
        sd = math.sqrt(moment(2) / mass - mean**2)
        data = ObservedDataset(
            patients=tuple(
                _obs(id=i, w=int(arm[i]), y_obs={9.0: float(y[i])}, x=(float(x[i, 0]),))
                for i in range(len(y))
            ),
            follow_up=15.0,
        )
        post = fit_longitudinal(data, 9.0, wgt, self.PRIORS, McmcConfig(samples=10_000, seed=3))
        k = post.n_draws
        assert post.converged
        assert post.sigma.mean() == pytest.approx(mean, abs=4 * sd / math.sqrt(k))
        assert post.sigma.std() == pytest.approx(sd, rel=0.03)

    def test_sigma_mass_at_grid_end_is_flagged(self):
        # noiseless outcomes: the sigma posterior piles up below the grid
        pats = [_obs(id=i, w=i % 2, y_obs={6.0: -2.0 + 0.5 * i}, x=(float(i),)) for i in range(40)]
        data = ObservedDataset(patients=tuple(pats), follow_up=15.0)
        post = fit_longitudinal(data, 6.0, np.ones(40), LongPriors(), McmcConfig(seed=1))
        assert not post.converged


def test_intercept_prior_sensitivity_is_negligible_with_data():
    # the named study variant shifts the intercept prior mean from -2 to -1;
    # with a fitted dataset the two posteriors must essentially coincide
    params = get_scenario("beneficial")
    data = observe(simulate_science_table(params, seed=17))
    t = 6.0
    weights = np.array(
        [1.0 if (p.alive_at(t) and t in p.y_obs) else 0.0 for p in data.patients]
    )
    posts = []
    for mean in (-2.0, -1.0):
        priors = LongPriors(beta0_mean=mean)
        posts.append(fit_longitudinal(data, t, weights, priors, McmcConfig(seed=23)))
    intervals = [
        np.percentile(p.beta0[:, 1] - p.beta0[:, 0], [2.5, 97.5]) for p in posts
    ]
    lo = max(iv[0] for iv in intervals)
    hi = min(iv[1] for iv in intervals)
    assert lo < hi  # overlapping credible intervals
    medians = [float(np.median(p.beta0[:, 1] - p.beta0[:, 0])) for p in posts]
    assert abs(medians[0] - medians[1]) < 0.2


@pytest.mark.slow
def test_oracle_weights_recover_true_contrast():
    # principal-ignorability lever: with weights from the true survival
    # process, the fitted arm contrast matches the simulator's truth
    for name, effect in (("no_effect", 0.0), ("beneficial", 1.0)):
        params = get_scenario(name).with_updates(n=2000)
        table = simulate_science_table(params, seed=31)
        data = observe(table)
        t = 9.0
        truth_sp = SurvivalParams(
            grid=HazardGrid((0.0, 15.0)),
            lambda0=np.array([0.05]),
            lambda1=np.array([0.05]),
            alpha0=np.zeros(1),
            alpha1=np.zeros(1),
        )
        # exact counterfactual survival probabilities from the generative law
        weights = np.zeros(len(data))
        for i, p in enumerate(data.patients):
            if p.alive_at(t) and t in p.y_obs:
                scale = (params.th1_0 if p.w == 0 else params.th0_0) + p.x[0]
                weights[i] = math.exp(-((t / scale) ** params.rho))
        post = fit_longitudinal(data, t, weights, LongPriors(), McmcConfig(seed=5))
        contrast = (post.beta0[:, 1] - post.beta0[:, 0]).mean()
        se = 2.4 * math.sqrt(2 / max(weights.sum(), 1.0))
        assert contrast == pytest.approx(effect * t, abs=4 * se + 0.05)
