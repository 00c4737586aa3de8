"""Estimator correctness: spec'd examples, brute-force enumeration oracle,
reduction and symmetry properties, and batched/scalar agreement."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from oracles import (
    LongParams,
    ObservedRecord,
    SurvivalParams,
    _pooled_median,
    composite_diff_dist,
    composite_order,
    long_draw,
    observed_composite,
    observed_dataset,
    patients,
    pc_draw,
    percentile_summary,
    predict_s_mis,
    rmst_draw,
    sace_draw,
    sim_draw,
    survival_draw,
    survival_prob,
)
from tbd.estimators import (
    _infinite_columns,
    _sim,
    estimand_draws,
    naive_effect,
    rmst_estimand_draws,
    summaries_of,
    summarize,
    wmw,
)
from tbd.longitudinal import LongitudinalPosterior, counterfactual_mean
from tbd.simulate import get_scenario, observe, simulate_science_table
from tbd.survival import S_MIS_BLOCK, HazardGrid, SurvivalPosterior, _rmst_batch

GRID = HazardGrid((0.0, 5.0, 15.0))
T = 10.0


def _obs(id, w, t_obs, d_obs, y=None, x=0.0):
    y_obs = {} if y is None else {T: y}
    return ObservedRecord(
        id=id, x=(x,), w=w, t_obs=t_obs, d_obs=d_obs, y_obs=y_obs,
    )


@pytest.fixture
def fixture_data():
    return observed_dataset(
        (
            _obs(0, 1, 15.0, 0, y=-3.0, x=0.3),
            _obs(1, 0, 15.0, 0, y=-6.0, x=-0.5),
            _obs(2, 1, 7.0, 1, x=0.1),
            _obs(3, 0, 4.0, 1, x=-1.2),
        ),
        15.0,
    )


@pytest.fixture
def fixture_draws():
    s = SurvivalParams(
        grid=GRID,
        lambda0=np.array([0.03, 0.08]),
        lambda1=np.array([0.05, 0.02]),
        alpha0=np.array([0.2]),
        alpha1=np.array([-0.1]),
    )
    l = LongParams(
        beta0=np.array([-5.0, -2.5]), beta1=np.array([[1.5], [0.8]]), sigma=1.3
    )
    return s, l


def _sparams_const(lam0, lam1):
    return SurvivalParams(
        grid=HazardGrid((0.0, 15.0)),
        lambda0=np.array([lam0]),
        lambda1=np.array([lam1]),
        alpha0=np.zeros(1),
        alpha1=np.zeros(1),
    )


class TestCompositeDiffDist:
    def test_treated_survivor_splits_mass(self):
        lam = -math.log(0.8) / T  # counterfactual survival 0.8 at the horizon
        s = _sparams_const(lam, 0.01)
        l = LongParams(beta0=np.array([-4.0, 0.0]), beta1=np.zeros((2, 1)), sigma=1.0)
        p = _obs(0, 1, 15.0, 0, y=-3.0)  # y_obs - mu_mis = +1
        dist = composite_diff_dist(s, l, p, T)
        atoms = dict(dist.atoms)
        assert atoms[1.0] == pytest.approx(0.8)
        assert atoms[math.inf] == pytest.approx(0.2)

    def test_control_death_flips_signs(self):
        lam = -math.log(0.75) / 8.0
        s = _sparams_const(0.01, lam)  # counterfactual (treated) survival at 8 is 0.75
        l = LongParams(beta0=np.zeros(2), beta1=np.zeros((2, 1)), sigma=1.0)
        p = _obs(0, 0, 8.0, 1)
        dist = composite_diff_dist(s, l, p, T)
        atoms = dict(dist.atoms)
        assert atoms[math.inf] == pytest.approx(0.75)
        assert atoms[-math.inf] == pytest.approx(0.25)

    def test_certain_survival_gives_single_finite_atom(self):
        s = _sparams_const(1e-300, 0.01)
        l = LongParams(beta0=np.array([-4.0, 0.0]), beta1=np.zeros((2, 1)), sigma=1.0)
        p = _obs(0, 1, 15.0, 0, y=-3.0)
        dist = composite_diff_dist(s, l, p, T)
        assert len(dist.atoms) == 1
        assert dist.atoms[0][0] == pytest.approx(1.0)


class TestSaceDraw:
    def test_plain_mean_under_unit_weights(self):
        s = _sparams_const(1e-300, 1e-300)
        l = LongParams(beta0=np.array([-5.0, 0.0]), beta1=np.zeros((2, 1)), sigma=1.0)
        data = observed_dataset((_obs(0, 1, 15.0, 0, y=-3.0), _obs(1, 1, 15.0, 0, y=-5.0)), 15.0)
        # diffs are +2 and 0 against the counterfactual mean of -5
        assert sace_draw(s, l, data, T) == pytest.approx(1.0)

    def test_degenerate_weight_keeps_only_weighted_patient(self):
        s = SurvivalParams(
            grid=HazardGrid((0.0, 15.0)),
            lambda0=np.array([1e-3]),
            lambda1=np.array([1e-3]),
            alpha0=np.array([30.0]),  # x=1 patient gets essentially zero weight
            alpha1=np.zeros(1),
        )
        l = LongParams(beta0=np.array([-5.0, 0.0]), beta1=np.zeros((2, 1)), sigma=1.0)
        data = observed_dataset(
            (
                _obs(0, 1, 15.0, 0, y=-3.0, x=0.0),
                _obs(1, 1, 15.0, 0, y=-5.0, x=1.0),
            ),
            15.0,
        )
        assert sace_draw(s, l, data, T) == pytest.approx(2.0)

    def test_no_survivors_is_undefined(self):
        s = _sparams_const(0.05, 0.05)
        l = LongParams(beta0=np.zeros(2), beta1=np.zeros((2, 1)), sigma=1.0)
        data = observed_dataset((_obs(0, 1, 4.0, 1),), 15.0)
        assert math.isnan(sace_draw(s, l, data, T))


class TestPcDraw:
    def test_no_deaths_and_centered_outcomes_give_half(self):
        # every observed value equals its counterfactual predictive mean
        s = _sparams_const(1e-300, 1e-300)
        l = LongParams(beta0=np.array([-6.0, -3.0]), beta1=np.zeros((2, 1)), sigma=1.0)
        data = observed_dataset((_obs(0, 1, 15.0, 0, y=-6.0), _obs(1, 0, 15.0, 0, y=-3.0)), 15.0)
        assert pc_draw(s, l, data, T) == pytest.approx(0.5)

    def test_degenerate_scale_uses_indicator_with_half_ties(self):
        s = _sparams_const(1e-300, 1e-300)
        l = LongParams(beta0=np.array([-6.0, 0.0]), beta1=np.zeros((2, 1)), sigma=1e-12)
        data = observed_dataset(
            (
                _obs(0, 1, 15.0, 0, y=-5.0),  # above the counterfactual mean
                _obs(1, 1, 15.0, 0, y=-6.0),  # exactly at it
            ),
            15.0,
        )
        l_zero = LongParams(beta0=np.array([-6.0, 0.0]), beta1=np.zeros((2, 1)), sigma=1e-12)
        got = pc_draw(s, l_zero, data, T)
        # ties get half credit once sigma collapses
        assert got == pytest.approx((1.0 + 0.5) / 2, abs=1e-6)


class TestRmstDraw:
    def test_zero_when_counterfactual_certainly_survives(self):
        s = _sparams_const(1e-300, 1e-300)
        data = observed_dataset((_obs(0, 1, 15.0, 0, y=0.0),), 15.0)
        assert rmst_draw(s, data, T) == pytest.approx(0.0)

    def test_bounded_by_horizon(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = _sparams_const(rng.uniform(0.001, 0.5), rng.uniform(0.001, 0.5))
            data = observed_dataset(
                tuple(
                    _obs(i, i % 2, 15.0, 0, y=0.0) if i % 3 else _obs(i, i % 2, rng.uniform(1, 9), 1)
                    for i in range(9)
                ),
                15.0,
            )
            assert abs(rmst_draw(s, data, T)) <= T + 1e-12


class TestBruteForceOracle:
    """Criterion oracle: every estimator must match exhaustive enumeration
    over the latent counterfactual-death configurations of a 4-patient
    dataset with one fixed posterior draw."""

    def _branch_probs(self, s, data):
        # probability that each patient's counterfactual survives the
        # relevant horizon (t for survivors, t_obs for deaths)
        return [predict_s_mis(s, p, T) for p in patients(data)]

    def test_sace_matches_enumeration(self, fixture_data, fixture_draws):
        s, l = fixture_draws
        probs = self._branch_probs(s, fixture_data)
        num = 0.0
        den = 0.0
        for config in itertools.product([True, False], repeat=4):
            weight = math.prod(p if c else 1 - p for p, c in zip(probs, config))
            diffs = []
            for p, alive_cf in zip(patients(fixture_data), config):
                if p.alive_at(T) and alive_cf:
                    mu = l.mean(p.x, 1 - p.w)
                    diffs.append((2 * p.w - 1) * (p.y_obs[T] - mu))
            num += weight * sum(diffs)
            den += weight * len(diffs)
        assert sace_draw(s, l, fixture_data, T) == pytest.approx(num / den, abs=1e-12)

    def test_pc_matches_enumeration(self, fixture_data, fixture_draws):
        s, l = fixture_draws
        probs = self._branch_probs(s, fixture_data)
        total = 0.0
        for config in itertools.product([True, False], repeat=4):
            weight = math.prod(p if c else 1 - p for p, c in zip(probs, config))
            win = 0.0
            for p, alive_cf in zip(patients(fixture_data), config):
                if p.alive_at(T):
                    if alive_cf:
                        mu = l.mean(p.x, 1 - p.w)
                        z = (2 * p.w - 1) * (p.y_obs[T] - mu) / l.sigma
                        win += float(ndtr(z))
                    else:
                        win += 1.0 if p.w == 1 else 0.0
                else:
                    # counterfactual outliving the observed death favors control
                    if alive_cf:
                        win += 1.0 if p.w == 0 else 0.0
                    else:
                        win += 1.0 if p.w == 1 else 0.0
            total += weight * win / len(fixture_data)
        assert pc_draw(s, l, fixture_data, T) == pytest.approx(total, abs=1e-12)

    def test_rmst_matches_independent_quadrature(self, fixture_data, fixture_draws):
        s, _ = fixture_draws
        total = 0.0
        for p in patients(fixture_data):
            integral, _ = integrate.quad(
                lambda u: survival_prob(s, p.x, 1 - p.w, u),
                0.0, T, points=[5.0], limit=200, epsabs=1e-12, epsrel=1e-12,
            )
            total += (2 * p.w - 1) * (min(p.t_obs, T) - integral)
        assert rmst_draw(s, fixture_data, T) == pytest.approx(total / 4, abs=1e-9)

    def _reference_pooled_median(self, atoms, n):
        # independent reimplementation: linear scan over sorted atoms
        atoms = sorted(atoms, key=lambda a: a[0])
        acc = 0.0
        half = n / 2.0
        for idx, (v, m) in enumerate(atoms):
            acc += m
            if acc >= half - 1e-12:
                if abs(acc - half) <= 1e-12 and idx + 1 < len(atoms):
                    nxt = atoms[idx + 1][0]
                    if math.isinf(v) and math.isinf(nxt) and v != nxt:
                        return float("nan")
                    if math.isinf(v):
                        return v
                    if math.isinf(nxt):
                        return nxt
                    return 0.5 * (v + nxt)
                return v
        return atoms[-1][0]

    def test_sim_matches_enumerated_pooled_atoms(self, fixture_data, fixture_draws):
        s, l = fixture_draws
        probs = self._branch_probs(s, fixture_data)
        atoms = []
        for p, prob in zip(patients(fixture_data), probs):
            sign = 2 * p.w - 1
            if p.alive_at(T):
                mu = l.mean(p.x, 1 - p.w)
                atoms.append((sign * (p.y_obs[T] - mu), prob))
                atoms.append((sign * math.inf, 1 - prob))
            else:
                atoms.append((-sign * math.inf, prob))
                atoms.append((sign * math.inf, 1 - prob))
        expected = self._reference_pooled_median(atoms, len(fixture_data))
        assert sim_draw(s, l, fixture_data, T) == pytest.approx(expected, abs=1e-12)

    def test_sim_dominant_infinite_mass_returns_infinity(self):
        s = _sparams_const(0.5, 0.5)  # counterfactual survival gets tiny
        l = LongParams(beta0=np.zeros(2), beta1=np.zeros((2, 1)), sigma=1.0)
        data = observed_dataset(tuple(_obs(i, 1, 15.0, 0, y=0.0) for i in range(6)), 15.0)
        # treated survivors with near-zero counterfactual survival: most mass at +inf
        assert sim_draw(s, l, data, T) == math.inf


class TestReferenceEstimators:
    def test_naive_zero_for_equal_arms(self):
        data = observed_dataset(
            (
                _obs(0, 1, 15.0, 0, y=-2.0),
                _obs(1, 0, 15.0, 0, y=-3.0),
                _obs(2, 1, 15.0, 0, y=-4.0),
                _obs(3, 0, 15.0, 0, y=-3.0),
            ),
            15.0,
        )
        assert naive_effect(data, T) == pytest.approx(0.0)

    def test_naive_none_when_arm_empty(self):
        data = observed_dataset((_obs(0, 1, 15.0, 0, y=-2.0),), 15.0)
        assert naive_effect(data, T) is None

    def test_naive_beneficial_early_visit_near_slope_difference(self):
        params = get_scenario("beneficial").with_updates(n=10_000)
        data = observe(simulate_science_table(params, seed=19))
        assert naive_effect(data, 3.0) == pytest.approx(3.0, abs=0.2)

    def test_naive_diverges_from_always_survivor_truth_late(self):
        # selection on survival drags the observed-survivor contrast away
        # from the always-survivor effect (which is exactly t)
        params = get_scenario("mixed").with_updates(n=10_000)
        data = observe(simulate_science_table(params, seed=19))
        naive = naive_effect(data, 15.0)
        assert abs(naive - 15.0) > 1.0

    def test_wmw_identical_arms_is_half(self):
        data = observed_dataset(
            (
                _obs(0, 1, 15.0, 0, y=-2.0),
                _obs(1, 0, 15.0, 0, y=-2.0),
                _obs(2, 1, 8.0, 1),
                _obs(3, 0, 8.0, 1),
            ),
            15.0,
        )
        assert wmw(data, T) == pytest.approx(0.5)

    def test_wmw_all_treated_better(self):
        data = observed_dataset(
            (
                _obs(0, 1, 15.0, 0, y=-1.0),
                _obs(1, 1, 15.0, 0, y=-2.0),
                _obs(2, 0, 9.0, 1),
                _obs(3, 0, 15.0, 0, y=-8.0),
            ),
            15.0,
        )
        assert wmw(data, T) == 1.0

    def test_wmw_random_interleaving_near_half(self):
        rng = np.random.default_rng(23)
        pats = []
        for i in range(2000):
            w = i % 2
            if rng.uniform() < 0.3:
                pats.append(_obs(i, w, rng.uniform(0.5, 9.9), 1))
            else:
                pats.append(_obs(i, w, 15.0, 0, y=rng.normal()))
        data = observed_dataset(tuple(pats), 15.0)
        assert wmw(data, T) == pytest.approx(0.5, abs=0.03)


class TestSummarize:
    def test_median_of_three(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.median == 2.0

    def test_constant_draws_zero_width(self):
        s = summarize([1.5] * 50)
        assert s.lo95 == s.median == s.hi95 == 1.5

    def test_infinite_draws_counted_not_ranked(self):
        draws = [math.inf] * 40 + list(np.linspace(-1, 1, 60))
        s = summarize(draws)
        assert s.frac_undefined == pytest.approx(0.4)
        assert -1 <= s.median <= 1

    def test_all_undefined(self):
        s = summarize([math.inf, -math.inf, math.nan])
        assert s.median is None and s.frac_undefined == 1.0


def _synthetic_posteriors(seed, n_draws=40, grid=GRID):
    rng = np.random.default_rng(seed)
    j = grid.n_segments
    spost = SurvivalPosterior(
        grid=grid,
        lambda0=rng.uniform(0.01, 0.15, size=(n_draws, j)),
        lambda1=rng.uniform(0.01, 0.15, size=(n_draws, j)),
        alpha0=rng.normal(0, 0.3, size=(n_draws, 1)),
        alpha1=rng.normal(0, 0.3, size=(n_draws, 1)),
        diagnostics={},
        converged=True,
    )
    lpost = LongitudinalPosterior(
        t=T,
        beta0=rng.normal(-4, 1, size=(n_draws, 2)),
        beta1=rng.normal(0.5, 0.3, size=(n_draws, 2, 1)),
        sigma=np.abs(rng.normal(1.5, 0.2, size=n_draws)),
        diagnostics={},
        converged=True,
    )
    return spost, lpost


def _swap_arms(data, spost, lpost):
    swapped = observed_dataset(
        tuple(
            ObservedRecord(
                id=p.id, x=p.x, w=1 - p.w, t_obs=p.t_obs, d_obs=p.d_obs,
                y_obs=p.y_obs,
            )
            for p in patients(data)
        ),
        data.follow_up, data.visit_times,
    )
    spost2 = SurvivalPosterior(
        grid=spost.grid,
        lambda0=spost.lambda1, lambda1=spost.lambda0,
        alpha0=spost.alpha1, alpha1=spost.alpha0,
        diagnostics={}, converged=True,
    )
    lpost2 = LongitudinalPosterior(
        t=lpost.t,
        beta0=lpost.beta0[:, ::-1],
        beta1=lpost.beta1[:, ::-1],
        sigma=lpost.sigma,
        diagnostics={}, converged=True,
    )
    return swapped, spost2, lpost2


class TestBatchedEvaluation:
    def _data(self, seed=29, n=60):
        rng = np.random.default_rng(seed)
        pats = []
        for i in range(n):
            w = i % 2
            x = rng.normal()
            if rng.uniform() < 0.3:
                pats.append(_obs(i, w, rng.uniform(0.5, 9.5), 1, x=x))
            else:
                pats.append(_obs(i, w, 15.0, 0, y=rng.normal(-4, 2), x=x))
        return observed_dataset(tuple(pats), 15.0)

    def test_matches_scalar_draw_functions(self):
        data = self._data()
        spost, lpost = _synthetic_posteriors(31)
        k = 10
        result = estimand_draws(spost, lpost, data, T, k)
        rmst = rmst_estimand_draws(spost, data, T, k)
        s_idx = spost.subsample_indices(k)
        l_idx = lpost.subsample_indices(k)
        for kk in (0, 4, 9):
            s = survival_draw(spost, int(s_idx[kk]))
            l = long_draw(lpost, int(l_idx[kk]))
            assert result.sace[kk] == pytest.approx(sace_draw(s, l, data, T), abs=1e-10)
            assert result.pc[kk] == pytest.approx(pc_draw(s, l, data, T), abs=1e-10)
            assert rmst[kk] == pytest.approx(rmst_draw(s, data, T), abs=1e-10)
            assert result.sim[kk] == pytest.approx(sim_draw(s, l, data, T), abs=1e-10)

    def test_arm_swap_antisymmetry(self):
        data = self._data(seed=37)
        spost, lpost = _synthetic_posteriors(41)
        k = 12
        a = estimand_draws(spost, lpost, data, T, k)
        swapped, spost2, lpost2 = _swap_arms(data, spost, lpost)
        b = estimand_draws(spost2, lpost2, swapped, T, k)
        assert np.allclose(b.pc, 1.0 - a.pc, atol=1e-10)
        assert np.allclose(b.sace, -a.sace, atol=1e-10)
        assert np.allclose(rmst_estimand_draws(spost2, swapped, T, k),
                           -rmst_estimand_draws(spost, data, T, k), atol=1e-10)
        finite = np.isfinite(a.sim)
        assert np.array_equal(finite, np.isfinite(b.sim))
        assert np.allclose(b.sim[finite], -a.sim[finite], atol=1e-10)

    def test_pc_in_unit_interval_and_rmst_bounded(self):
        for seed in range(5):
            data = self._data(seed=seed)
            spost, lpost = _synthetic_posteriors(seed + 100)
            r = estimand_draws(spost, lpost, data, T, 15)
            assert np.all((0.0 <= r.pc) & (r.pc <= 1.0))
            assert np.all(np.abs(rmst_estimand_draws(spost, data, T, 15)) <= T + 1e-9)

    def test_certain_survival_reductions(self):
        # with counterfactual survival pinned at 1 the estimators collapse
        data = observed_dataset([_obs(i, i % 2, 15.0, 0, y=float(-i), x=0.0) for i in range(8)],
                                15.0)
        k = 5
        rng = np.random.default_rng(3)
        spost = SurvivalPosterior(
            grid=GRID,
            lambda0=np.full((k, 2), 1e-300),
            lambda1=np.full((k, 2), 1e-300),
            alpha0=np.zeros((k, 1)),
            alpha1=np.zeros((k, 1)),
            diagnostics={}, converged=True,
        )
        lpost = LongitudinalPosterior(
            t=T,
            beta0=rng.normal(-4, 1, size=(k, 2)),
            beta1=rng.normal(0, 0.2, size=(k, 2, 1)),
            sigma=np.abs(rng.normal(1.5, 0.1, size=k)),
            diagnostics={}, converged=True,
        )
        result = estimand_draws(spost, lpost, data, T, k)
        for kk in range(k):
            l = long_draw(lpost, kk)
            diffs = [(2 * p.w - 1) * (p.y_obs[T] - l.mean(p.x, 1 - p.w)) for p in patients(data)]
            assert result.sace[kk] == pytest.approx(np.mean(diffs), abs=1e-10)
            phis = [
                float(ndtr((2 * p.w - 1) * (p.y_obs[T] - l.mean(p.x, 1 - p.w)) / l.sigma))
                for p in patients(data)
            ]
            assert result.pc[kk] == pytest.approx(np.mean(phis), abs=1e-10)


def test_memory_does_not_grow_with_draws():
    # the draws are evaluated a block at a time: 4000 draws may hold no more
    # than one block's arrays, and the per-draw results, at once
    data = _mixed_data(60, 200)
    spost, lpost = _synthetic_posteriors(61, n_draws=4000)

    def peak(k):
        tracemalloc.start()
        try:
            estimand_draws(spost, lpost, data, T, k)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_block = peak(S_MIS_BLOCK)
    assert peak(4000) <= 1.5 * one_block, one_block


def test_rmst_memory_does_not_grow_with_draws():
    # every visit's restricted mean in one pass: 4000 draws may hold no more
    # than one block's (visits x block x patients) integrals at once; at
    # n=1000 they outweigh the kernel's per-tile arrays
    data = _mixed_data(62, 1000)
    spost, _ = _synthetic_posteriors(63, n_draws=4000)
    times = (3.0, 6.0, T, 12.0, 15.0)

    def peak(k):
        tracemalloc.start()
        try:
            rmst_estimand_draws(spost, data, times, k)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_block = peak(S_MIS_BLOCK)
    assert peak(4000) <= 1.5 * one_block, one_block


# --- bitwise agreement with the retired per-draw loops ---------------------------
#
# The references below are the per-draw SIM loop and the both-arm RMST that
# estimand_draws used before it was vectorised; the batched code must give
# the same bits, not merely close values.


def _reference_sim(s_mis, y_mis, y, sign, alive):
    """One ``_pooled_median`` per draw over the kept (positive-mass) atoms."""
    surv, dead = alive, ~alive
    half = len(y) / 2.0
    inf = np.inf
    sim = np.empty(len(s_mis))
    for kk in range(len(s_mis)):
        v_fin = sign[surv] * (y[surv] - y_mis[kk, surv]) + 0.0  # -0.0 reads as +0.0
        m_fin = s_mis[kk, surv]
        v_inf_surv = np.where(sign[surv] > 0, inf, -inf)
        m_inf_surv = 1.0 - m_fin
        v_dead_lo = np.where(sign[dead] > 0, -inf, inf)
        m_dead_lo = s_mis[kk, dead]
        v_dead_hi = np.where(sign[dead] > 0, inf, -inf)
        m_dead_hi = 1.0 - m_dead_lo
        values = np.concatenate([v_fin, v_inf_surv, v_dead_lo, v_dead_hi])
        masses = np.concatenate([m_fin, m_inf_surv, m_dead_lo, m_dead_hi])
        keep = masses > 0
        sim[kk] = _pooled_median(values[keep], masses[keep], half)
    return sim


def _reference_sim_draws(spost, lpost, data, t, k):
    """SIM draws as the retired loop computed them, from the same inputs."""
    w = np.array([p.w for p in patients(data)])
    x = np.array([p.x for p in patients(data)], dtype=float)
    alive = np.array([p.alive_at(t) for p in patients(data)])
    y = np.array([p.y_obs.get(t, np.nan) for p in patients(data)])
    s_mis = spost.s_mis_matrix(data, t, spost.subsample_indices(k))
    l_idx = lpost.subsample_indices(k)
    arm_mis = 1 - w
    mu_mis = lpost.beta0[l_idx][:, arm_mis] + np.einsum(
        "knp,np->kn", lpost.beta1[l_idx][:, arm_mis, :], x
    )
    return _reference_sim(s_mis, mu_mis, y, 2 * w - 1, alive)


def _sim_inputs(spost, lpost, data, t, k):
    """``_sim``'s arguments for all k draws at once, as ``estimand_draws``
    builds them for each block."""
    sign = 2 * data.w - 1
    at = data.at(t)
    surv, dead = at.alive, ~at.alive
    s_mis = spost.s_mis_matrix(data, t, spost.subsample_indices(k))
    l_idx = lpost.subsample_indices(k)
    diff = sign * (at.y - counterfactual_mean(lpost.beta0[l_idx], lpost.beta1[l_idx],
                                              data.x, data.w))
    neg, pos = _infinite_columns(sign[surv] > 0, sign[dead] > 0)
    return diff[:, surv], s_mis[:, surv], s_mis[:, dead], neg, pos, len(data) / 2.0


def _reference_sace_pc(spost, lpost, data, t, k):
    """SACE and PC draws from whole (draws, patients) arrays, as
    estimand_draws computed them before it took its draws block by block."""
    w, n = data.w, len(data)
    sign = 2 * w - 1
    at = data.at(t)
    surv, y = at.alive, at.y
    s_mis = spost.s_mis_matrix(data, t, spost.subsample_indices(k))
    l_idx = lpost.subsample_indices(k)
    sigma = lpost.sigma[l_idx]
    arm_mis = 1 - w
    mu_mis = lpost.beta0[l_idx][:, arm_mis] + np.einsum(
        "knp,np->kn", lpost.beta1[l_idx][:, arm_mis, :], data.x
    )
    diff = sign[None, :] * (y[None, :] - mu_mis)
    s_surv = s_mis[:, surv]
    den = s_surv.sum(axis=1)
    num = (s_surv * diff[:, surv]).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        sace = np.where(den > 0, num / den, np.nan)
    p_fin = ndtr(diff / sigma[:, None])
    pc_surv = s_mis * p_fin + (1.0 - s_mis) * (w == 1)[None, :]
    pc_dead = np.where((w == 1)[None, :], 1.0 - s_mis, s_mis)
    pc = (np.where(surv[None, :], pc_surv, pc_dead)).sum(axis=1) / n
    return sace, pc


def _rmst_terms(lam, scale, overlaps):
    """Every segment's restricted-mean term, (K, n, J), each evaluated."""
    r = lam[:, None, :] * scale[:, :, None]
    seg_haz = r * overlaps[None, None, :]
    prefix = np.concatenate(
        [np.zeros_like(seg_haz[..., :1]), np.cumsum(seg_haz, axis=2)[..., :-1]], axis=2
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        piece = np.where(r > 0, -np.expm1(-seg_haz) / np.where(r > 0, r, 1.0), overlaps)
    return np.exp(-prefix) * piece


def _reference_rmst_batch(lam, scale, overlaps):
    """Full (K, n) restricted-mean integral: the terms added in segment order."""
    return np.cumsum(_rmst_terms(lam, scale, overlaps), axis=2)[..., -1]


def _reference_rmst_draws(spost, data, t, k):
    """Both arms' integrals for every patient, then each patient's
    unassigned arm kept."""
    w = np.array([p.w for p in patients(data)])
    x = np.array([p.x for p in patients(data)], dtype=float)
    t_obs = np.array([p.t_obs for p in patients(data)])
    s_idx = spost.subsample_indices(k)
    overlaps = spost.grid.overlaps(float(t))
    scale0 = np.exp(spost.alpha0[s_idx] @ x.T)
    scale1 = np.exp(spost.alpha1[s_idx] @ x.T)
    integral0 = _reference_rmst_batch(spost.lambda0[s_idx], scale0, overlaps)
    integral1 = _reference_rmst_batch(spost.lambda1[s_idx], scale1, overlaps)
    integral = np.where((1 - w)[None, :] == 1, integral1, integral0)
    return ((2 * w - 1)[None, :] * (np.minimum(t_obs, t)[None, :] - integral)).mean(axis=1)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    signs = np.array_equal(np.signbit(a[~np.isnan(a)]), np.signbit(b[~np.isnan(b)]))
    return np.array_equal(a, b, equal_nan=True) and signs


def _mixed_data(seed, n, p_dead=0.3, treated=None, y=None):
    """n patients alternating arms (or all in arm ``treated``), a share
    ``p_dead`` dead before T; ``y(rng)`` draws survivors' outcomes."""
    rng = np.random.default_rng(seed)
    pats = []
    for i in range(n):
        w = i % 2 if treated is None else treated
        x = float(rng.normal())
        if rng.uniform() < p_dead:
            pats.append(_obs(i, w, float(rng.uniform(0.5, 9.5)), 1, x=x))
        else:
            value = rng.normal(-4, 2) if y is None else y(rng)
            pats.append(_obs(i, w, 15.0, 0, y=float(value), x=x))
    return observed_dataset(tuple(pats), 15.0)


def _extreme_survival(n_draws, grid=GRID):
    """Draws cycling through rates so small that the counterfactual survival
    is exactly 1.0, so large that it is exactly 0.0, and in between, chosen
    separately per arm."""
    levels = np.array([1e-300, 1e300, 0.05])
    j = grid.n_segments
    pick0 = np.arange(n_draws) % 3
    pick1 = (np.arange(n_draws) // 3) % 3
    return SurvivalPosterior(
        grid=grid,
        lambda0=np.repeat(levels[pick0][:, None], j, axis=1),
        lambda1=np.repeat(levels[pick1][:, None], j, axis=1),
        alpha0=np.zeros((n_draws, 1)),
        alpha1=np.zeros((n_draws, 1)),
        diagnostics={},
        converged=True,
    )


def _integer_longitudinal(n_draws, seed):
    """Integer intercepts and no covariate effect: survivors' finite atoms tie."""
    rng = np.random.default_rng(seed)
    return LongitudinalPosterior(
        t=T,
        beta0=rng.integers(-6, -2, size=(n_draws, 2)).astype(float),
        beta1=np.zeros((n_draws, 2, 1)),
        sigma=np.full(n_draws, 1.5),
        diagnostics={},
        converged=True,
    )


class TestBitIdenticalToPerDrawLoops:
    K = 2 * S_MIS_BLOCK + 40  # two full blocks of draws and a partial third

    def _cases(self):
        synthetic = _synthetic_posteriors(5, n_draws=self.K)
        integer_y = lambda rng: float(rng.integers(-6, -2))
        return {
            "zero_and_one_mass": (_mixed_data(1, 30), _extreme_survival(self.K), synthetic[1]),
            "all_alive": (_mixed_data(2, 24, p_dead=0.0), *synthetic),
            "all_dead": (_mixed_data(3, 24, p_dead=1.0), *synthetic),
            "one_arm_only": (_mixed_data(4, 9, treated=1), *synthetic),
            "tied_finite_values": (_mixed_data(6, 40, y=integer_y), synthetic[0],
                                   _integer_longitudinal(self.K, 7)),
            "tied_and_extreme": (_mixed_data(8, 40, y=integer_y), _extreme_survival(self.K),
                                 _integer_longitudinal(self.K, 9)),
            "odd_n": (_mixed_data(10, 17), *synthetic),
            # hundreds of finite atoms to sort, with atoms at -inf and at +inf
            "hundreds_of_atoms": (_mixed_data(17, 601), *synthetic),
            "hundreds_of_tied_atoms": (_mixed_data(18, 600, y=integer_y), synthetic[0],
                                       _integer_longitudinal(self.K, 19)),
        }

    @pytest.mark.parametrize("block_atoms", [None, 100])  # 100: SIM a few draws at a time
    def test_sim_and_rmst_match_reference(self, block_atoms, monkeypatch):
        if block_atoms is not None:
            monkeypatch.setattr("tbd.estimators._SIM_BLOCK_ATOMS", block_atoms)
        for name, (data, spost, lpost) in self._cases().items():
            for k in (self.K, 36, 7):
                got = estimand_draws(spost, lpost, data, T, k)
                assert _same_bits(got.sim, _reference_sim_draws(spost, lpost, data, T, k)), name
                assert _same_bits(rmst_estimand_draws(spost, data, T, k),
                                  _reference_rmst_draws(spost, data, T, k)), name

    def test_sace_and_pc_match_whole_array_reference(self):
        for name, (data, spost, lpost) in self._cases().items():
            for k in (self.K, 36, 7):
                got = estimand_draws(spost, lpost, data, T, k)
                sace, pc = _reference_sace_pc(spost, lpost, data, T, k)
                assert _same_bits(got.sace, sace), name
                assert _same_bits(got.pc, pc), name

    def test_sim_ignores_the_order_of_tied_atoms(self):
        # numpy's default sort may put tied finite atoms in any order:
        # permuting the finite atoms with their masses changes no bit (the
        # survivors' infinite atoms, whose masses _sim takes from s_surv,
        # are re-pointed so that they keep their order)
        rng = np.random.default_rng(71)
        cases = self._cases()
        for name in ("tied_finite_values", "tied_and_extreme", "hundreds_of_tied_atoms"):
            data, spost, lpost = cases[name]
            d_surv, s_surv, s_dead, neg, pos, half = _sim_inputs(spost, lpost, data, T, self.K)
            sim = _sim(d_surv, s_surv, s_dead, neg, pos, half)
            assert _same_bits(sim, estimand_draws(spost, lpost, data, T, self.K).sim), name
            for _ in range(3):
                perm = rng.permutation(d_surv.shape[1])
                moved = np.argsort(perm)  # where each survivor's column went
                got = _sim(d_surv[:, perm], s_surv[:, perm], s_dead,
                           (moved[neg[0]], *neg[1:]), (moved[pos[0]], *pos[1:]), half)
                assert _same_bits(got, sim), name

    def test_sim_is_never_negative_zero(self):
        # a median on a -0.0 atom, alone or tied with a +0.0 in either order
        for d_surv in ([[-0.0]], [[-0.0, 0.0, 5.0]], [[0.0, -0.0, 5.0]]):
            d_surv = np.array(d_surv)
            n = d_surv.shape[1]  # treated survivors, certain to survive under control
            got = _sim(d_surv, np.ones_like(d_surv), np.empty((1, 0)),
                       *_infinite_columns(np.ones(n, dtype=bool), np.empty(0, dtype=bool)), n / 2.0)
            assert got[0] == 0.0 and not np.signbit(got[0]), d_surv
        for name, (data, spost, lpost) in self._cases().items():
            sim = estimand_draws(spost, lpost, data, T, self.K).sim
            assert not np.signbit(sim[sim == 0]).any(), name

    def test_boundary_on_exact_half_averages_neighbours(self):
        # even n, counterfactual survival exactly 1: the cumulative mass lands
        # on n / 2 at the middle survivor, and SIM is the midpoint
        data = _mixed_data(12, 8, p_dead=0.0)
        spost = _extreme_survival(1)
        lpost = _synthetic_posteriors(13, n_draws=1)[1]
        got = estimand_draws(spost, lpost, data, T, 1)
        assert _same_bits(got.sim, _reference_sim_draws(spost, lpost, data, T, 1))
        l = long_draw(lpost, 0)
        diffs = sorted((2 * p.w - 1) * (p.y_obs[T] - l.mean(p.x, 1 - p.w))
                       for p in patients(data))
        assert got.sim[0] == 0.5 * (diffs[3] + diffs[4])

    def test_opposite_infinite_neighbours_give_nan(self):
        # counterfactual survival exactly 0: half the mass at -inf (control
        # survivors), half at +inf (treated survivors), so no midpoint
        data = _mixed_data(14, 6, p_dead=0.0)
        spost = SurvivalPosterior(
            grid=GRID, lambda0=np.full((2, 2), 1e300), lambda1=np.full((2, 2), 1e300),
            alpha0=np.zeros((2, 1)), alpha1=np.zeros((2, 1)), diagnostics={}, converged=True,
        )
        lpost = _synthetic_posteriors(15, n_draws=2)[1]
        got = estimand_draws(spost, lpost, data, T, 2)
        assert np.isnan(got.sim).all()
        assert _same_bits(got.sim, _reference_sim_draws(spost, lpost, data, T, 2))

    def test_infinite_and_finite_neighbour_gives_the_infinity(self):
        # one control death with survival exactly 1 puts mass one at +inf
        # right after the finite atoms; with n = 2 the boundary falls between
        data = observed_dataset((_obs(0, 1, 15.0, 0, y=-3.0), _obs(1, 0, 4.0, 1)), 15.0)
        spost = _extreme_survival(1)
        lpost = _synthetic_posteriors(16, n_draws=1)[1]
        got = estimand_draws(spost, lpost, data, T, 1)
        assert got.sim[0] == math.inf
        assert _same_bits(got.sim, _reference_sim_draws(spost, lpost, data, T, 1))

    @pytest.mark.parametrize("cuts", [
        (0.0, 15.0),
        (0.0, 3.0, 6.0, 9.0, 12.0, 15.0),
        tuple(np.linspace(0.0, 15.0, 11)),  # 10 segments
        (0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 7.0, 8.0, 9.0, 10.5, 12.0, 13.5, 15.0),
    ])
    def test_rmst_matches_both_arm_reference_on_any_grid(self, cuts):
        grid = HazardGrid(tuple(float(c) for c in cuts))
        k = 2 * S_MIS_BLOCK + 40  # two full blocks of the kernel and a partial third
        # at 0, inside segments, on every cutpoint, past the last one, and repeated:
        # each time of one call shares segment terms with the others
        times = (0.0, 0.25, 7.7, 10.0, 21.0, *grid.cutpoints[1:], 7.7, 0.0)
        for seed in range(3):
            data = _mixed_data(20 + seed, 31 + seed)
            spost, lpost = _synthetic_posteriors(30 + seed, n_draws=25, grid=grid)
            blocked, _ = _synthetic_posteriors(40 + seed, n_draws=k + 60, grid=grid)
            idx = blocked.subsample_indices(k)
            every_time = rmst_estimand_draws(blocked, data, times, k)
            every_matrix = blocked.rmst_matrix(data, times, idx)
            assert every_time.shape == (len(times), k)
            for t, got, matrix in zip(times, every_time, every_matrix):
                one = rmst_estimand_draws(spost, data, t, 25)
                assert _same_bits(one, _reference_rmst_draws(spost, data, t, 25)), (seed, t)
                one = rmst_estimand_draws(blocked, data, t, k)
                assert _same_bits(one, _reference_rmst_draws(blocked, data, t, k)), (seed, t, k)
                assert _same_bits(got, one), (seed, t, k)
                assert _same_bits(matrix, blocked.rmst_matrix(data, t, idx)), (seed, t, k)
            draws = estimand_draws(spost, lpost, data, T, 25)
            assert _same_bits(draws.sim, _reference_sim_draws(spost, lpost, data, T, 25))

    @pytest.mark.parametrize("n_segments", [*range(1, 21), 130])
    def test_rmst_batch_matches_reference_on_long_grids(self, n_segments):
        # every time's terms are added in segment order, a running total that
        # the times share, however many segments and times there are: each
        # row has the bits of the reference and of a call at that time alone,
        # at 0, inside a segment, on a cutpoint, past the last, unsorted and
        # repeated
        grid = HazardGrid(tuple(float(c) for c in np.linspace(0.0, 15.0, n_segments + 1)))
        rng = np.random.default_rng(n_segments)
        lam = rng.uniform(0.01, 0.3, size=(37, n_segments))
        lam[0] = 0.0  # the full segment length where the hazard is zero
        lam[1, ::3] = 1e300  # survival exactly 0 from the first such segment
        scale = np.exp(rng.normal(0, 0.5, size=(37, 23)))
        times = (0.1, 21.0, 7.7, 2.0, 14.9, 15.0, 0.0, *grid.cutpoints[:0:-3], 7.7, 0.0, 21.0)
        overlaps = grid.overlaps(times)
        every_time = _rmst_batch(lam, scale, overlaps)
        assert every_time.shape == (len(times), *scale.shape)
        for t, ov, got in zip(times, overlaps, every_time):
            assert _same_bits(got, _reference_rmst_batch(lam, scale, ov)), t
            assert _same_bits(got, _rmst_batch(lam, scale, ov[None])[0]), t
            assert t > 0 or (got == 0).all()
        if n_segments > 2:
            assert (grid.overlaps(7.7) == 0).any()  # trailing segments are dead

    @pytest.mark.parametrize("n_segments", range(1, 8))
    def test_rmst_batch_is_np_sum_below_eight_segments(self, n_segments):
        # np.sum adds fewer than 8 terms one by one, as a running total does,
        # so on such grids, every grid of the library scenarios, the kernel
        # has the bits of np.sum over the stacked terms
        grid = HazardGrid(tuple(float(c) for c in np.linspace(0.0, 15.0, n_segments + 1)))
        rng = np.random.default_rng(100 + n_segments)
        lam = rng.uniform(0.01, 0.3, size=(29, n_segments))
        scale = np.exp(rng.normal(0, 0.5, size=(29, 17)))
        times = (0.5, 3.0, 7.7, 15.0, 21.0, *grid.cutpoints[1:])
        overlaps = grid.overlaps(times)
        for ov, got in zip(overlaps, _rmst_batch(lam, scale, overlaps)):
            assert _same_bits(got, np.sum(_rmst_terms(lam, scale, ov), axis=2))

    def test_rmst_batch_where_the_segment_hazard_is_zero(self):
        # a segment rate of exactly 0, and covariate scales that underflow to
        # 0: the segment adds its full length, as the reference's np.where
        # gives it, and the other terms keep their bits
        grid = HazardGrid((0.0, 2.0, 5.0, 9.0, 15.0))
        rng = np.random.default_rng(77)
        lam = rng.uniform(0.01, 0.3, size=(11, grid.n_segments))
        lam[2, 1] = 0.0
        lam[5, :] = 0.0
        scale = np.exp(rng.normal(0, 0.5, size=(11, 7)))
        scale[:, 3] = np.exp(-800.0)
        scale[7, :] = np.exp(-800.0)
        assert (scale[:, 3] == 0).all()
        times = (1.0, 5.0, 7.7, 15.0)
        overlaps = grid.overlaps(times)
        every_time = _rmst_batch(lam, scale, overlaps)
        for ov, got in zip(overlaps, every_time):
            want = _reference_rmst_batch(lam, scale, ov)
            assert _same_bits(got, want)
            assert (got[:, 3] == ov.sum()).all() and (got[5] == ov.sum()).all()

    def test_rmst_with_two_covariates_matches_reference_closely(self):
        # at p > 1 the covariate scales are matrix products over each arm's
        # patients, which may round differently from the reference's
        rng = np.random.default_rng(52)
        data = observed_dataset(
            [replace(p, x=(p.x[0], float(rng.normal()))) for p in patients(_mixed_data(53, 45))],
            15.0,
        )
        k = 2 * S_MIS_BLOCK + 40
        spost, _ = _synthetic_posteriors(54, n_draws=k)
        spost = replace(spost, alpha0=rng.normal(0, 0.3, size=(k, 2)),
                        alpha1=rng.normal(0, 0.3, size=(k, 2)))
        for t in (3.0, T, 15.0):
            np.testing.assert_allclose(rmst_estimand_draws(spost, data, t, k),
                                       _reference_rmst_draws(spost, data, t, k), rtol=0, atol=1e-12)


def _reference_wmw(data, t):
    """The pairwise double loop over observed composites."""
    treated = [observed_composite(p, t) for p in patients(data) if p.w == 1]
    control = [observed_composite(p, t) for p in patients(data) if p.w == 0]
    if not treated or not control:
        return None
    total = 0.0
    for zi in treated:
        for zj in control:
            o = composite_order(zi, zj)
            total += 1.0 if o > 0 else (0.5 if o == 0 else 0.0)
    return total / (len(treated) * len(control))


class TestWmwByCounting:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_double_loop_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        pats = []
        for i in range(int(rng.integers(5, 80))):
            w = int(rng.uniform() < 0.4)
            if rng.uniform() < 0.35:  # deaths on a coarse grid: tied death times
                pats.append(_obs(i, w, float(rng.integers(1, 5)) * 2.0, 1))
            else:  # integer outcomes: tied survivor values
                pats.append(_obs(i, w, 15.0, 0, y=float(rng.integers(-3, 3))))
        data = observed_dataset(tuple(pats), 15.0)
        assert wmw(data, T) == _reference_wmw(data, T)

    def test_matches_double_loop_continuous(self):
        data = _mixed_data(40, 301)
        assert wmw(data, T) == _reference_wmw(data, T)

    @pytest.mark.parametrize("arm", [0, 1])
    def test_empty_arm(self, arm):
        data = _mixed_data(41, 7, treated=arm)
        assert wmw(data, T) is None and _reference_wmw(data, T) is None

    def test_only_deaths_in_one_arm(self):
        data = observed_dataset(
            (_obs(0, 1, 3.0, 1), _obs(1, 1, 3.0, 1), _obs(2, 0, 3.0, 1),
             _obs(3, 0, 15.0, 0, y=1.0), _obs(4, 0, 2.0, 1)),
            15.0,
        )
        assert wmw(data, T) == _reference_wmw(data, T)

    def test_alive_without_measurement_is_refused(self):
        data = observed_dataset((_obs(0, 1, 15.0, 0, y=1.0), _obs(7, 0, 15.0, 0)), 15.0)
        with pytest.raises(ValueError, match="patient 7"):
            wmw(data, T)


class TestSummariesShareOnePercentileCall:
    def test_same_as_percentile_per_estimand(self):
        rng = np.random.default_rng(3)
        for k in (1, 2, 7, 100, 101):
            rows = [rng.normal(size=k) * 10 for _ in range(4)]
            rows[1] = np.round(rows[1])  # ties
            for bad in (None, 0, 2):  # no row, the first row or SIM with non-finite draws
                drawn = [r.copy() for r in rows]
                if bad is not None:
                    drawn[bad][:: 3] = np.inf
                got = summaries_of(drawn)
                assert len(got) == len(drawn)
                for one, row in zip(got, drawn):
                    want = percentile_summary(row)
                    assert one == want
                    for f in ("median", "lo95", "hi95"):  # == takes -0.0 for 0.0
                        a, b = getattr(one, f), getattr(want, f)
                        assert a is None and b is None or _same_bits(a, b)

    def test_several_results_share_the_call(self):
        # a study cell summarizes all its visits at once, a visit without a
        # longitudinal fit holding the restricted-mean draws alone
        rng = np.random.default_rng(4)
        rows = []
        for bad in (None, 2, None, 0):
            drawn = [rng.normal(size=100) * 10 for _ in range(4)]
            if bad is not None:
                drawn[bad][::4] = -np.inf
            rows.extend(drawn)
        rows.insert(8, rng.normal(size=100))
        got = summaries_of(rows)
        assert len(got) == len(rows)
        for one, row in zip(got, rows):
            want = percentile_summary(row)
            for f in ("median", "lo95", "hi95", "frac_undefined", "n_draws"):
                assert _same_bits(getattr(one, f), getattr(want, f)), f
        assert summaries_of([]) == []

    def test_zeros_of_both_signs_ties_and_few_finite_draws(self):
        # rows grouped by their number of finite draws, from none to all, hold
        # +0.0 and -0.0 among ties, so the order statistics the partition
        # places decide the sign of a zero
        rng = np.random.default_rng(5)
        for k in (1, 2, 3, 23, 100):
            rows = []
            for _ in range(60):
                row = rng.choice([-0.0, 0.0, 1.0, -1.0, 2.5], size=k) * rng.choice([1.0, 1e-300])
                row[rng.random(k) < rng.choice([0.0, 0.1, 0.5, 1.0])] = rng.choice(
                    [np.inf, -np.inf, np.nan])
                rows.append(row)
            for one, row in zip(summaries_of(rows), rows):
                want = percentile_summary(row)
                for f in ("median", "lo95", "hi95", "frac_undefined", "n_draws"):
                    a, b = getattr(one, f), getattr(want, f)
                    assert a is None and b is None or _same_bits(a, b), (k, f, row)

    def test_no_draws_refused(self):
        empty = np.array([])
        with pytest.raises(ValueError, match="no draws"):
            summaries_of([empty, empty])
