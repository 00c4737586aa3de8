"""Bias/coverage records, reconstruction MAE, and IPCW survival metrics."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from tbd.estimators import EstimandSummary
from tbd.metrics import (
    bias_and_coverage,
    brier_scores,
    cdauc,
    ibs,
    km_survival,
    mae_reconstruction,
)
from oracles import ObservedRecord, PatientTruth, observed_dataset, records, science_table
from tbd.simulate import get_scenario, observe, simulate_science_table


def _summary(median, lo, hi):
    return EstimandSummary(median=median, lo95=lo, hi95=hi, frac_undefined=0.0, n_draws=100)


class TestBiasCoverage:
    def test_covered_interval(self):
        bc = bias_and_coverage(_summary(0.2, -1.0, 1.0), truth=0.0)
        assert bc.defined and bc.covered
        assert bc.bias == pytest.approx(0.2)

    def test_not_covered(self):
        bc = bias_and_coverage(_summary(3.7, 3.5, 4.0), truth=3.0)
        assert bc.defined and not bc.covered

    def test_infinite_truth_omitted_with_reason(self):
        bc = bias_and_coverage(_summary(1.0, 0.0, 2.0), truth=math.inf)
        assert not bc.defined
        assert bc.reason == "truth infinite"

    def test_undefined_truth_omitted(self):
        bc = bias_and_coverage(_summary(1.0, 0.0, 2.0), truth=None)
        assert not bc.defined and bc.reason == "truth undefined"

    def test_undefined_estimate_omitted(self):
        s = EstimandSummary(median=None, lo95=None, hi95=None, frac_undefined=1.0, n_draws=100)
        bc = bias_and_coverage(s, truth=0.0)
        assert not bc.defined and bc.reason == "estimate undefined"


def _science_pair(n=400, seed=0):
    params = get_scenario("no_effect").with_updates(n=n)
    return simulate_science_table(params, seed=seed)


class TestMae:
    def test_perfect_imputation_is_zero(self):
        table = _science_pair(n=50)
        t = 9.0
        imputed = [
            p.trajectory(1 - p.w).get(t, 0.0) for p in records(table)
        ]
        assert mae_reconstruction(table, imputed, t) == 0.0

    def test_constant_offset_recovered(self):
        table = _science_pair(n=50)
        t = 9.0
        imputed = [
            p.trajectory(1 - p.w).get(t, 0.0) + 0.7 for p in records(table)
        ]
        assert mae_reconstruction(table, imputed, t) == pytest.approx(0.7)

    def test_true_parameter_imputation_equals_mean_absolute_noise(self):
        # imputing with the exact regression mean leaves only the shared
        # patient noise; its mean absolute value is sigma * sqrt(2 / pi)
        params = get_scenario("no_effect").with_updates(n=100_000)
        table = simulate_science_table(params, seed=5)
        t = 9.0
        imputed = (-2.0 + table.x[:, 0]) * t
        expected = params.sigma * math.sqrt(2 / math.pi)
        got = mae_reconstruction(table, imputed, t)
        assert got == pytest.approx(expected, rel=0.02)

    def test_no_counterfactual_survivors_returns_none(self):
        p = PatientTruth(
            id=0, x=(0.0,), w=1, y0={}, y1={3.0: -1.0, 9.0: -2.0},
            t0=2.0, t1=20.0,
        )
        table = science_table([p], 15.0, (3.0, 9.0))
        assert mae_reconstruction(table, [0.0], 9.0) is None


def _obs(id, t_obs, d_obs, w=0):
    return ObservedRecord(
        id=id, x=(0.0,), w=w, t_obs=t_obs, d_obs=d_obs, y_obs={},
    )


def _censored_at_random(rows):
    """What the IPCW metrics read of a dataset, its ``t_obs`` and ``d_obs``
    columns, for patients censored at times of their own. An
    ``ObservedDataset`` refuses them: it censors only at its one follow-up."""
    return SimpleNamespace(t_obs=np.array([p.t_obs for p in rows]),
                           d_obs=np.array([p.d_obs for p in rows]))


class TestKaplanMeier:
    def test_no_censoring_matches_empirical_survival(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        km = km_survival(times, np.ones(4, dtype=int))
        assert km(np.array([2.5]), left=False)[0] == pytest.approx(0.5)
        assert km(np.array([2.0]), left=True)[0] == pytest.approx(0.75)  # left limit
        assert km(np.array([0.5]), left=False)[0] == 1.0

    def test_censored_subjects_leave_risk_set(self):
        times = np.array([1.0, 2.0, 3.0])
        events = np.array([1, 0, 1])
        km = km_survival(times, events)
        # death at 1 (3 at risk) then death at 3 (1 at risk)
        assert km(np.array([1.5]), left=False)[0] == pytest.approx(2 / 3)
        assert km(np.array([3.5]), left=False)[0] == pytest.approx(0.0)

    @staticmethod
    def _loop_km(times, events):
        """The estimator as a running product over event times, one at a time."""
        order = np.argsort(times, kind="stable")
        times, events = times[order], events[order]
        uniq = np.unique(times[events == 1])
        surv_vals, s = [], 1.0
        for u in uniq:
            s *= 1.0 - np.sum((times == u) & (events == 1)) / np.sum(times >= u)
            surv_vals.append(s)
        padded = np.concatenate([[1.0], surv_vals])
        return lambda t, left: padded[np.searchsorted(uniq, t, side="left" if left else "right")]

    def test_bit_identical_to_the_running_product(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n = int(rng.integers(1, 80))
            # rounding makes ties, between events and with censored times
            times = np.round(rng.exponential(5.0, n), int(rng.integers(0, 3))) + 0.01
            events = (rng.random(n) < rng.random()).astype(int)
            queries = np.concatenate([times, rng.uniform(0.0, times.max() + 1.0, 20), [0.0]])
            km = km_survival(times, events)
            for left in (True, False):
                want = self._loop_km(times, events)(queries, left)
                assert km(queries, left=left).tobytes() == want.tobytes()
                assert km(float(queries[0]), left=left) == want[0]


class TestBrier:
    def test_oracle_step_predictions_score_zero(self):
        pats = [_obs(i, t, 1) for i, t in enumerate([2.0, 5.0, 9.0, 13.0])]
        data = observed_dataset(tuple(pats), 20.0)
        grid = np.array([1.0, 4.0, 8.0, 12.0])
        pred = np.array([[1.0 if p.t_obs > g else 0.0 for g in grid] for p in pats])
        assert ibs(pred, data, grid) == 0.0

    def test_constant_half_prediction_scores_quarter(self):
        pats = [_obs(i, t, 1) for i, t in enumerate([2.0, 5.0, 9.0, 13.0])]
        data = observed_dataset(tuple(pats), 20.0)
        grid = np.array([1.0, 4.0, 8.0, 12.0])
        pred = np.full((4, 4), 0.5)
        scores = brier_scores(pred, data, grid)
        assert np.allclose(scores, 0.25)
        assert ibs(pred, data, grid) == pytest.approx(0.25)

    def test_reference_implementation_agreement(self):
        # naive O(n^2) IPCW Brier on a censored dataset
        rng = np.random.default_rng(4)
        n = 150
        raw = rng.weibull(1.5, size=n) * 10
        cens = rng.uniform(2, 15, size=n)
        pats = []
        for i in range(n):
            t_obs = min(raw[i], cens[i])
            d = int(raw[i] <= cens[i])
            pats.append(
                ObservedRecord(id=i, x=(0.0,), w=0, t_obs=t_obs, d_obs=d, y_obs={})
            )
        data = _censored_at_random(pats)
        grid = np.array([2.0, 4.0, 6.0])
        pred = rng.uniform(0.2, 0.95, size=(n, 3))

        times = np.array([p.t_obs for p in pats])
        events = np.array([p.d_obs for p in pats])
        g = km_survival(times, 1 - events)
        expected = []
        for k, tau in enumerate(grid):
            total = 0.0
            for i in range(n):
                if times[i] <= tau and events[i] == 1:
                    total += pred[i, k] ** 2 / g(np.array([times[i]]), left=True)[0]
                elif times[i] > tau:
                    total += (1 - pred[i, k]) ** 2 / g(np.array([tau]), left=False)[0]
            expected.append(total / n)
        assert np.allclose(brier_scores(pred, data, grid), expected)

    def test_degenerate_late_grid_truncated_with_warning(self):
        pats = [_obs(0, 5.0, 1), _obs(1, 6.0, 0), _obs(2, 7.0, 1, w=1)]
        data = _censored_at_random(pats)
        grid = np.array([4.0, 8.0])  # past the last censoring time G hits 0
        pred = np.full((3, 2), 0.5)
        with pytest.warns(UserWarning, match="truncated"):
            val = ibs(pred, data, grid)
        assert 0.0 <= val <= 1.0


class TestCdAuc:
    def test_perfect_risk_ordering_scores_one(self):
        rng = np.random.default_rng(1)
        times = rng.uniform(1, 14, size=200)
        pats = tuple(_obs(i, t, 1) for i, t in enumerate(times))
        data = observed_dataset(pats, 20.0)
        risk = -times  # earlier death = higher risk
        assert cdauc(risk, data, np.array([3.0, 6.0, 9.0])) == pytest.approx(1.0)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(2)
        n = 10_000
        times = rng.uniform(1, 14, size=n)
        pats = tuple(_obs(i, t, 1) for i, t in enumerate(times))
        data = observed_dataset(pats, 20.0)
        risk = rng.normal(size=n)
        assert cdauc(risk, data, np.array([3.0, 6.0, 9.0])) == pytest.approx(0.5, abs=0.02)

    def test_monotone_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        n = 300
        times = rng.uniform(1, 14, size=n)
        pats = tuple(_obs(i, t, int(rng.uniform() < 0.8)) if rng.uniform() < 0.9
                     else _obs(i, t, 0) for i, t in enumerate(times))
        # rebuild with consistent censoring flags
        pats = []
        for i, t in enumerate(times):
            d = int(rng.uniform() < 0.8)
            pats.append(ObservedRecord(id=i, x=(0.0,), w=0, t_obs=t, d_obs=d, y_obs={}))
        data = _censored_at_random(pats)
        risk = rng.normal(size=n)
        a = cdauc(risk, data, np.array([4.0, 8.0]))
        b = cdauc(np.exp(2.0 * risk), data, np.array([4.0, 8.0]))
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("tied", [False, True], ids=["continuous", "ties"])
    def test_reference_implementation_agreement(self, tied):
        rng = np.random.default_rng(6)
        n = 120
        pats = []
        for i in range(n):
            t = rng.uniform(1, 14)
            d = int(rng.uniform() < 0.7)
            pats.append(ObservedRecord(id=i, x=(0.0,), w=0, t_obs=t, d_obs=d, y_obs={}))
        data = _censored_at_random(pats)
        risk = rng.normal(size=n)
        if tied:
            risk = np.round(risk, 1)
        tau = 7.0
        times = np.array([p.t_obs for p in pats])
        events = np.array([p.d_obs for p in pats])
        g = km_survival(times, 1 - events)
        num = 0.0
        den_w = 0.0
        n_ctrl = int((times > tau).sum())
        for i in range(n):
            if times[i] <= tau and events[i] == 1:
                w_i = 1.0 / g(np.array([times[i]]), left=True)[0]
                den_w += w_i
                for j in range(n):
                    if times[j] > tau:
                        if risk[i] > risk[j]:
                            num += w_i
                        elif risk[i] == risk[j]:
                            num += 0.5 * w_i
        expected = num / (den_w * n_ctrl)
        got = cdauc(risk, data, np.array([tau]))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_times_without_events_skipped_with_warning(self):
        pats = tuple(_obs(i, t, 1) for i, t in enumerate([5.0, 6.0, 9.0, 12.0]))
        data = observed_dataset(pats, 20.0)
        with pytest.warns(UserWarning, match="skipped"):
            val = cdauc(np.array([4.0, 3.0, 2.0, 1.0]), data, np.array([1.0, 7.0]))
        assert 0.0 <= val <= 1.0

    def test_no_covariate_signal_in_model_nor_truth_is_uninformative(self):
        data = observe(simulate_science_table(
            get_scenario("no_effect").with_updates(th0_x=0.0, th1_x=0.0, n=4000), seed=8
        ))
        rng = np.random.default_rng(9)
        risk = rng.normal(size=len(data))  # model with no signal
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val = cdauc(risk, data, np.arange(4.0, 15.0))
        assert val == pytest.approx(0.5, abs=0.05)
