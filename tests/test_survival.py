"""Per-segment exposures and deaths, closed-form survival quantities, and fit oracles."""

import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from oracles import (
    ObservedRecord,
    SurvivalParams,
    observed_dataset,
    patients,
    predict_s_mis,
    rmst_integral,
    survival_draw,
    survival_prob,
    untiled_rmst_matrix,
    untiled_s_mis_matrix,
)
import tbd
from tbd.mcmc import McmcConfig
from tbd.simulate import get_scenario, observe, simulate_science_table
from tbd.survival import (
    BLAS_ONE_THREAD,
    S_MIS_BLOCK,
    S_MIS_TILE,
    HazardGrid,
    SurvivalPosterior,
    SurvivalPriors,
    default_grid,
    draw_blocks,
    tile_width,
    _Arm,
    _arm,
    _exposures,
    fit_survival,
)

GRID = HazardGrid(cutpoints=(0.0, 3.0, 6.0, 9.0, 12.0, 15.0))


def _patient(t_obs, d_obs, w=0, x=(0.0,)):
    return ObservedRecord(id=0, x=x, w=w, t_obs=t_obs, d_obs=d_obs, y_obs={})


def _dataset(records):
    return observed_dataset(records, 15.0)


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
            pats = [p for p in patients(data) if p.w == w]
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
    for p in patients(data):
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


def _random_posterior(k, seed=0, segments=5):
    rng = np.random.default_rng(seed)
    return SurvivalPosterior(
        grid=default_grid(15.0, [15.0 * i / segments for i in range(1, segments + 1)]),
        lambda0=rng.uniform(0.01, 0.2, size=(k, segments)),
        lambda1=rng.uniform(0.01, 0.2, size=(k, segments)),
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
        assert any(p.d_obs == 1 and p.t_obs <= t for p in patients(self.data))
        for kk in range(k):
            params = survival_draw(post, kk)
            for i, p in enumerate(patients(self.data)):
                assert matrix[kk, i] == pytest.approx(predict_s_mis(params, p, t), abs=1e-12)

    @staticmethod
    def _check_mean(post, data, t):
        """The mean path against the rows of every draw: over the patients
        alive at t, the column sums of the rows, block by block of draws as
        the kernel adds them, divided by the number of draws, bit for bit;
        NaN for the others. (``rows.mean(axis=0)`` adds the draws in another
        order and agrees only to the last few bits beyond one block.)"""
        k = post.n_draws
        mean = post.s_mis_matrix(data, t)
        rows = post.s_mis_matrix(data, t, np.arange(k))
        alive = data.at(t).alive
        blocked = sum(rows[b].sum(axis=0) for b in draw_blocks(k)) / k
        assert mean.shape == (len(data),)
        assert np.array_equal(mean[alive], blocked[alive]), t
        assert np.isnan(mean[~alive]).all(), t
        if k == 1:
            assert np.array_equal(mean[alive], rows[:, alive].mean(axis=0)), t
        np.testing.assert_allclose(mean[alive], rows[:, alive].mean(axis=0), rtol=0, atol=1e-14)
        return mean

    @pytest.mark.parametrize("k", [1, S_MIS_BLOCK + 1, 2 * S_MIS_BLOCK - 1])
    @pytest.mark.parametrize("one_arm", [False, True], ids=["both-arms", "one-arm"])
    def test_mean_over_all_draws(self, k, one_arm):
        data = self.data
        if one_arm:  # nobody's counterfactual arm is 0: that group is empty
            data = replace(data, w=np.zeros_like(data.w))
        post = _random_posterior(k, seed=k)
        for t in (3.0, 9.0, 15.0):
            self._check_mean(post, data, t)

    @pytest.mark.parametrize("k", [1, S_MIS_BLOCK + 1, 2 * S_MIS_BLOCK - 1])
    def test_mean_where_one_patient_of_a_tile_is_alive(self, k):
        # the control arm's treated counterfactuals form one tile of three:
        # at month 5 one of them is alive, at month 9 nobody is
        records = [ObservedRecord(id=i, x=(0.3 * i - 1.0,), w=0, t_obs=t_obs, d_obs=d_obs, y_obs={})
                   for i, (t_obs, d_obs) in enumerate([(4.0, 1), (8.0, 1), (2.0, 1)])]
        records += [ObservedRecord(id=3 + i, x=(0.2 * i,), w=1, t_obs=t_obs, d_obs=d_obs, y_obs={})
                    for i, (t_obs, d_obs) in enumerate([(15.0, 0), (6.0, 1), (15.0, 0), (1.0, 1)])]
        data = _dataset(records)
        post = _random_posterior(k, seed=k + 7)
        assert [int(data.at(5.0).alive[:3].sum()), int(data.at(9.0).alive[:3].sum())] == [1, 0]
        for t in (0.5, 3.0, 5.0, 6.0, 8.0, 9.0, 15.0):  # a death at months 6 and 8: dead there
            self._check_mean(post, data, t)
        mean = post.s_mis_matrix(data, 9.0)
        assert np.isnan(mean[:3]).all() and not np.isnan(mean[[3, 5]]).any()

    def test_mean_where_an_arm_has_nobody_alive(self):
        # every treated patient died before month 9: their tiles are skipped
        rng = np.random.default_rng(8)
        records = [ObservedRecord(id=i, x=(float(rng.normal()),), w=i % 2,
                                  t_obs=float(rng.uniform(0.5, 8.5)) if i % 2 else 15.0,
                                  d_obs=i % 2, y_obs={}) for i in range(2 * S_MIS_TILE + 11)]
        data = _dataset(records)
        post = _random_posterior(S_MIS_BLOCK + 1, seed=9)
        for t in (0.25, 9.0, 12.0):
            mean = self._check_mean(post, data, t)
        assert np.isnan(mean[data.w == 1]).all() and not np.isnan(mean[data.w == 0]).any()

    def test_one_visit_sequence(self):
        post = _random_posterior(S_MIS_BLOCK + 1, seed=3)
        for indices in (None, np.arange(0, post.n_draws, 2)):
            got = post.s_mis_matrix(self.data, [9.0], indices)
            want = post.s_mis_matrix(self.data, 9.0, indices)
            assert got.shape == (1, *want.shape)
            assert np.array_equal(got[0], want, equal_nan=True)

    def test_visit_sequence_stacks_one_visit_results(self):
        k = 2 * S_MIS_BLOCK + 40  # two full blocks and a partial third
        post = _random_posterior(k, seed=2)
        data, times = self.data, self.data.visit_times
        # deaths between visits give a patient a different horizon at each visit
        assert np.any((data.d_obs == 1) & (data.t_obs > times[0]) & (data.t_obs < times[-1])
                      & ~np.isin(data.t_obs, times))
        means = post.s_mis_matrix(self.data, times)
        assert means.shape == (len(times), len(self.data))
        assert np.array_equal(means, np.stack([post.s_mis_matrix(self.data, t) for t in times]),
                              equal_nan=True)
        idx = np.arange(0, k, 3)
        rows = post.s_mis_matrix(self.data, times, idx)
        assert rows.shape == (len(times), len(idx), len(self.data))
        assert np.array_equal(rows, np.stack([post.s_mis_matrix(self.data, t, idx)
                                              for t in times]))

    def test_assigned_survival_is_the_scalar_path_at_posterior_means(self):
        post = _random_posterior(9, seed=5)
        means = _params(post.lambda0.mean(axis=0), post.lambda1.mean(axis=0),
                        post.alpha0.mean(), post.alpha1.mean(), grid=post.grid)
        months = np.arange(2.0, 15.0)
        got = post.assigned_survival(self.data, months)
        assert got.shape == (len(self.data), len(months))
        for i, p in enumerate(patients(self.data)):
            want = [survival_prob(means, p.x, p.w, m) for m in months]
            np.testing.assert_allclose(got[i], want, rtol=1e-12)

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


def _arms_dataset(n_treated, n_control, seed):
    """Arms of the given sizes in random order; a share of deaths spread
    over the follow-up gives patients different horizons."""
    rng = np.random.default_rng(seed)
    arms = rng.permutation(np.repeat([1, 0], [n_treated, n_control]))
    records = []
    for i, w in enumerate(arms):
        died = bool(rng.uniform() < 0.4)
        t_obs = float(rng.uniform(0.5, 15.0)) if died else 15.0
        records.append(ObservedRecord(id=i, x=(float(rng.normal()),), w=int(w), t_obs=t_obs,
                                      d_obs=int(died), y_obs={}))
    return _dataset(records)


class TestPatientTiles:
    """The tiled kernels against the untiled traversal in ``oracles``.

    A patient whose unassigned arm fits in one tile gets the untiled
    product's bits by construction. In a wider arm the tiles are narrower
    matrix products than the arm's, and BLAS may compute a column of a wide
    product with another kernel. OpenBLAS 0.3 on x86-64 takes an edge
    kernel for the last (size mod 8) columns of a product over more than
    192 patients, which rounds the hazard differently in the last bit, and
    its exponential in the last few. There the check is to a relative
    1e-13. The restricted mean has no segment sum inside a matrix product
    and keeps its bits in every arm."""

    K = 2 * S_MIS_BLOCK + 40  # two full blocks of draws and a partial third
    # an arm of one more patient than a tile splits in two halves, not a tile and a single column
    ARMS = [(2 * S_MIS_TILE + 37, S_MIS_TILE), (S_MIS_TILE, 1), (1, 2 * S_MIS_TILE + 37),
            (S_MIS_TILE + 1, 2)]

    @pytest.fixture(params=ARMS, ids=lambda arms: f"{arms[0]}-{arms[1]}")
    def case(self, request):
        n_treated, n_control = request.param
        return _arms_dataset(n_treated, n_control, seed=n_treated), _random_posterior(self.K, seed=5)

    @staticmethod
    def _check(got, want, data):
        # a patient's unassigned arm is evaluated with every patient of its assigned arm
        one_tile = np.bincount(data.w, minlength=2)[data.w] <= S_MIS_TILE
        assert got.shape == want.shape
        assert np.array_equal(got[..., one_tile], want[..., one_tile], equal_nan=True)
        assert not np.any(np.signbit(got) ^ np.signbit(want))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_tile_products_stay_on_one_blas_thread(self):
        # each block's products, (draws x J) @ (J x tile) for the hazards and
        # (draws x p) @ (p x tile) for the covariate scales, stay within
        # BLAS_ONE_THREAD, in the fewest tiles of equal size; grids of up to
        # 8 segments keep S_MIS_TILE, so every five-visit output keeps its bytes
        data = _arms_dataset(2 * S_MIS_TILE + 37, 300, seed=4)
        idx = np.arange(S_MIS_BLOCK + 40)
        p = data.x.shape[1]
        for j in range(1, 65):
            width = tile_width(j, p)
            assert width == S_MIS_TILE if j <= 8 else width < S_MIS_TILE
            post = _random_posterior(len(idx), seed=j, segments=j)
            assert post.grid.n_segments == j
            sizes = {0: [], 1: []}
            for sel, blocks in post._unassigned_tiles(data, idx, by_death=j % 2 == 0):
                sizes[data.w[sel[0]]].append(len(sel))
                for rows, lam, scale in blocks:
                    assert lam.shape == (len(range(*rows.indices(len(idx)))), j)
                    assert scale.shape == (lam.shape[0], len(sel))
                    assert lam.shape[0] * max(j, p) * len(sel) <= BLAS_ONE_THREAD, j
            for w, n_w in ((0, 300), (1, 2 * S_MIS_TILE + 37)):  # patients by assigned arm
                assert sum(sizes[w]) == n_w
                assert len(sizes[w]) == -(-n_w // width), j
                assert max(sizes[w]) - min(sizes[w]) <= 1

    def test_tiles_cover_each_arm_once_in_order(self, case):
        # in index order for rows of draws and the restricted mean; in death
        # order (censored patients first, then deaths, latest first, ties by
        # index) for the posterior mean
        data, post = case
        idx = np.arange(self.K)
        died = data.d_obs == 1
        for by_death in (False, True):
            tiles = [(sel, [rows for rows, _, _ in blocks])
                     for sel, blocks in post._unassigned_tiles(data, idx, by_death)]
            for arm in (0, 1):
                mine = [sel for sel, _ in tiles if (data.w[sel] != arm).all()]
                members = np.flatnonzero(data.w != arm).tolist()
                if by_death:
                    members.sort(key=lambda i: (bool(died[i]), -data.t_obs[i] if died[i] else 0.0))
                assert np.concatenate(mine).tolist() == members
                sizes = [len(sel) for sel in mine]
                assert max(sizes) <= S_MIS_TILE and max(sizes) - min(sizes) <= 1
                assert min(sizes) > 1 or len(members) == 1
                # in death order the patients alive at any month are a prefix of each tile
                for sel, t in itertools.product(mine if by_death else [], (0.5, 3.0, 7.5, 15.0)):
                    alive = data.at(t).alive[sel]
                    assert not np.any(alive[1:] & ~alive[:-1]), t
            for sel, rows in tiles:
                assert [(r.start, r.stop) for r in rows] == [(b.start, b.stop)
                                                             for b in draw_blocks(self.K)]

    def test_mean_over_all_draws(self, case):
        data, post = case
        for t in (3.0, 7.5, 15.0):
            self._check(post.s_mis_matrix(data, t), untiled_s_mis_matrix(post, data, t), data)

    def test_rows_of_listed_draws(self, case):
        data, post = case
        idx = np.concatenate([np.arange(0, self.K, 2), [3, 3, self.K - 1]])
        for t in (3.0, 7.5, 15.0):
            self._check(post.s_mis_matrix(data, t, idx), untiled_s_mis_matrix(post, data, t, idx),
                        data)

    def test_sequence_of_times(self, case):
        data, post = case
        times = (3.0, 6.0, 9.0, 12.0, 15.0)
        self._check(post.s_mis_matrix(data, times), untiled_s_mis_matrix(post, data, times), data)
        idx = np.arange(self.K)
        self._check(post.s_mis_matrix(data, times, idx),
                    untiled_s_mis_matrix(post, data, times, idx), data)

    def test_rmst_keeps_its_bits(self, case):
        data, post = case
        idx = np.arange(self.K)
        times = (0.25, 7.7, 15.0, 21.0)
        for t in times:
            assert np.array_equal(post.rmst_matrix(data, t, idx),
                                  untiled_rmst_matrix(post, data, t, idx)), t
        assert np.array_equal(post.rmst_matrix(data, times, idx),
                              untiled_rmst_matrix(post, data, times, idx))


class TestFitSurvival:
    def test_conjugate_oracle_single_segment_no_covariates(self):
        data = observe(simulate_science_table(get_scenario("no_effect"), seed=1))
        stripped = replace(data, x=np.zeros_like(data.x))
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
        empty = observed_dataset([], 15.0)
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
        twins = observed_dataset([replace(p, w=w) for p in patients(data) for w in (0, 1)],
                                 data.follow_up, data.visit_times)
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
        stripped = replace(data, x=np.zeros_like(data.x))
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


# run in a fresh process with an .npz path as argument: fits no_effect at
# n=2000 on the default grid and on a grid of 15 visits, and saves each fit's
# draws, always-survivor weight means, survival rows and restricted means
CORE_COUNT_SCRIPT = """
import sys
import numpy as np
from tbd.mcmc import McmcConfig
from tbd.simulate import get_scenario, observe, simulate_science_table
from tbd.survival import SurvivalPriors, default_grid, fit_survival
data = observe(simulate_science_table(get_scenario("no_effect").with_updates(n=2000), seed=1))
visits, arrays = data.visit_times, {}
# 32 segments: a 128-patient tile's (256 x 32) @ (32 x 128) product would
# exceed BLAS_ONE_THREAD and run on two threads
for name, grid_visits in (("default", visits), ("visits15", range(1, 16)),
                          ("segments32", [15 * i / 32 for i in range(1, 33)])):
    post = fit_survival(data, default_grid(data.follow_up, grid_visits), SurvivalPriors(),
                        McmcConfig(seed=1))
    idx = post.subsample_indices(300)
    arrays.update({f"{name}_{key}": value for key, value in (
        ("lambda0", post.lambda0), ("lambda1", post.lambda1),
        ("alpha0", post.alpha0), ("alpha1", post.alpha1),
        ("weights", post.s_mis_matrix(data, visits)),
        ("s_mis_rows", post.s_mis_matrix(data, visits, idx)),
        ("rmst", post.rmst_matrix(data, visits, idx)))})
np.savez(sys.argv[1], **arrays)
"""


class TestBlasThreads:
    @pytest.mark.parametrize("p, j", [(1, 5), (2, 15)])
    def test_exposures_match_one_product(self, p, j):
        rng = np.random.default_rng(p)
        x, overlap = rng.standard_normal((1000, p)), rng.uniform(0.0, 3.0, (1000, j))
        arm = _Arm(x=x, overlap=overlap, events=np.zeros(j), sum_dx=np.zeros(p))
        alpha = 0.3 * rng.standard_normal((1001, p))
        assert BLAS_ONE_THREAD < 1001 * 1000 * j  # so the rows are split
        assert np.allclose(_exposures(arm, alpha), np.exp(alpha @ x.T) @ overlap,
                           rtol=1e-13, atol=0.0)

    def test_bits_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS rounds a product it splits over two threads differently
        # from one on a single thread; on one core both runs use one thread
        path = os.pathsep.join([str(Path(tbd.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
        runs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.npz"
            subprocess.run([sys.executable, "-c", CORE_COUNT_SCRIPT, str(out)], check=True,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path})
            with np.load(out) as arrays:
                runs[threads] = {key: arrays[key] for key in arrays.files}
        assert len(runs["1"]) == 21
        differ = [key for key, a in runs["1"].items() if a.tobytes() != runs["2"][key].tobytes()]
        assert differ == []


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
