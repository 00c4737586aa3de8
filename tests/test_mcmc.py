"""Sampler correctness against analytic and conjugate targets."""

import math

import numpy as np
import pytest
from scipy import stats

from tbd.mcmc import Block, McmcConfig, McmcError, ModelSpec, ess, rhat, run_chains

CFG = McmcConfig(chains=4, samples=1000, seed=317)


def _model(blocks, log_prior, log_likelihood, initial):
    return ModelSpec(blocks=blocks, log_prior=log_prior, log_likelihood=log_likelihood,
                     initial=initial)


def test_standard_normal_target():
    model = _model(
        (Block("mu", 1),),
        lambda p: np.zeros(len(p["mu"])),
        lambda p: -0.5 * p["mu"][:, 0] ** 2,
        lambda rng, c: {"mu": rng.normal(0, 3, size=(c, 1))},
    )
    res = run_chains(model, CFG)
    draws = res.pooled("mu")[:, 0]
    assert abs(draws.mean()) < 0.05
    assert abs(draws.var() - 1.0) < 0.1
    assert res.converged


def test_gamma_target_on_log_scale():
    shape, rate = 3.0, 2.0
    model = _model(
        (Block("lam", 1, positive=True),),
        lambda p: np.zeros(len(p["lam"])),
        lambda p: (shape - 1) * np.log(p["lam"][:, 0]) - rate * p["lam"][:, 0],
        lambda rng, c: {"lam": np.exp(rng.normal(0, 1, size=(c, 1)))},
    )
    res = run_chains(model, CFG)
    draws = res.pooled("lam")[:, 0]
    assert draws.mean() == pytest.approx(shape / rate, rel=0.03)
    assert np.all(draws > 0)


def test_seeded_runs_are_bit_identical():
    model = _model(
        (Block("mu", 2),),
        lambda p: np.zeros(len(p["mu"])),
        lambda p: -0.5 * (p["mu"] ** 2).sum(axis=1),
        lambda rng, c: {"mu": rng.normal(0, 2, size=(c, 2))},
    )
    a = run_chains(model, CFG)
    b = run_chains(model, CFG)
    assert np.array_equal(a.pooled("mu"), b.pooled("mu"))
    c = run_chains(model, McmcConfig(chains=4, samples=1000, seed=99), warmup=1000)
    assert not np.array_equal(a.pooled("mu"), c.pooled("mu"))


def test_gamma_poisson_conjugate_recovery():
    # counts with exposures: posterior is Gamma(a0 + sum d, b0 + sum E)
    rng = np.random.default_rng(8)
    exposure = rng.uniform(0.5, 3.0, size=40)
    truth = 0.8
    d = rng.poisson(truth * exposure)
    a0, b0 = 2.0, 1.0
    model = _model(
        (Block("lam", 1, positive=True),),
        lambda p: (a0 - 1) * np.log(p["lam"][:, 0]) - b0 * p["lam"][:, 0],
        lambda p: (d.sum()) * np.log(p["lam"][:, 0]) - exposure.sum() * p["lam"][:, 0],
        lambda rng_, c: {"lam": np.exp(rng_.normal(0, 1, size=(c, 1)))},
    )
    res = run_chains(model, CFG)
    draws = res.pooled("lam")[:, 0]
    post = stats.gamma(a=a0 + d.sum(), scale=1.0 / (b0 + exposure.sum()))
    assert draws.mean() == pytest.approx(post.mean(), rel=0.02)
    assert draws.std() == pytest.approx(post.std(), rel=0.05)


def test_normal_normal_conjugate_recovery():
    rng = np.random.default_rng(9)
    sigma = 2.0
    y = rng.normal(1.3, sigma, size=50)
    m0, s0 = 0.0, 3.0
    model = _model(
        (Block("mu", 1),),
        lambda p: -0.5 * ((p["mu"][:, 0] - m0) / s0) ** 2,
        lambda p: -0.5 * ((y[None, :] - p["mu"]) ** 2).sum(axis=1) / sigma**2,
        lambda rng_, c: {"mu": rng_.normal(0, 3, size=(c, 1))},
    )
    res = run_chains(model, CFG)
    draws = res.pooled("mu")[:, 0]
    prec = 1 / s0**2 + len(y) / sigma**2
    post_mean = (m0 / s0**2 + y.sum() / sigma**2) / prec
    post_sd = prec**-0.5
    assert draws.mean() == pytest.approx(post_mean, abs=0.02 * max(1.0, abs(post_mean)))
    assert draws.std() == pytest.approx(post_sd, rel=0.05)


def test_positive_support_never_violated():
    model = _model(
        (Block("lam", 3, positive=True),),
        lambda p: np.zeros(len(p["lam"])),
        lambda p: -(p["lam"].sum(axis=1)),
        lambda rng, c: {"lam": np.exp(rng.normal(0, 1, size=(c, 3)))},
    )
    res = run_chains(model, McmcConfig(chains=2, samples=300, seed=0), warmup=200)
    assert np.all(res.pooled("lam") > 0)


def test_invalid_initialization_raises_with_block_name():
    model = _model(
        (Block("lam", 1, positive=True),),
        lambda p: np.zeros(len(p["lam"])),
        lambda p: np.zeros(len(p["lam"])),
        lambda rng, c: {"lam": np.zeros((c, 1))},  # outside the positive support
    )
    with pytest.raises(McmcError, match="lam"):
        run_chains(model, McmcConfig(chains=2, samples=10, seed=0), warmup=10)


def test_nonfinite_density_at_init_raises():
    model = _model(
        (Block("mu", 1),),
        lambda p: np.full(len(p["mu"]), -np.inf),
        lambda p: np.zeros(len(p["mu"])),
        lambda rng, c: {"mu": rng.normal(size=(c, 1))},
    )
    with pytest.raises(McmcError, match="non-finite"):
        run_chains(model, McmcConfig(chains=2, samples=10, seed=0), warmup=10)


class TestDiagnostics:
    def test_rhat_near_one_for_iid_chains(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 2000))
        assert 0.99 <= rhat(x) <= 1.02

    def test_rhat_large_for_disjoint_chains(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 500)) + np.array([[-10.0], [10.0], [-10.0], [10.0]])
        assert rhat(x) > 3

    def test_rhat_not_applicable_for_constant_chains(self):
        x = np.ones((4, 100))
        assert math.isnan(rhat(x))
        assert math.isnan(ess(x))

    def test_ess_bounded_by_total_draws(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 500))
        assert ess(x) <= 2000

    def test_ess_close_to_total_for_iid(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 2000))
        assert ess(x) > 0.75 * 8000

    def test_ess_small_for_sticky_chains(self):
        rng = np.random.default_rng(3)
        steps = rng.normal(size=(4, 2000)) * 0.05
        x = np.cumsum(steps, axis=1)  # near-random-walk, heavy autocorrelation
        assert ess(x) < 500

    def test_requires_two_chains(self):
        with pytest.raises(ValueError):
            rhat(np.zeros((1, 100)))
