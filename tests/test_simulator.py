"""Simulator ground truths, rank preservation, and reproducibility."""

import json
import math
from importlib import resources

import numpy as np
import pytest

import oracles
from oracles import PatientTruth, Stratum, classify_stratum, records, science_table
from tbd.metrics import mae_reconstruction
from tbd.science import InvariantError, mass_median, observed_to_json, science_to_json
from tbd.simulate import (
    ScenarioError,
    _params_from_dict,
    child_seed,
    load_scenarios,
    observe,
    simulate_science_table,
    true_estimands,
    weibull_quantile,
)


@pytest.fixture(scope="module")
def scenarios():
    return load_scenarios()


def test_library_ships_four_named_scenarios(scenarios):
    assert set(scenarios) == {"no_effect_no_censoring", "no_effect", "beneficial", "mixed"}


def test_no_censoring_scenario_has_essentially_no_deaths(scenarios):
    params = scenarios["no_effect_no_censoring"]
    assert params.th0_0 == 150.0
    table = simulate_science_table(params.with_updates(n=2000), seed=11)
    frac = np.mean((table.t0 <= 15.0) | (table.t1 <= 15.0))
    assert frac <= 0.01


def test_weibull_median_matches_closed_form():
    # median of Weibull(scale s, shape rho) is s * ln(2)^(1/rho)
    rng = np.random.default_rng(0)
    u = rng.uniform(size=100_000)
    draws = weibull_quantile(u, scale=25.0, shape=3.5)
    expected = 25.0 * math.log(2) ** (1 / 3.5)
    assert expected == pytest.approx(22.51, abs=0.01)
    assert np.median(draws) == pytest.approx(expected, rel=0.02)


def test_identical_arm_parameters_give_identical_potential_outcomes(scenarios):
    table = simulate_science_table(scenarios["no_effect"], seed=3)
    np.testing.assert_array_equal(table.t0, table.t1)
    np.testing.assert_array_equal(table.y0, table.y1)  # the NaNs too: both arms die together


def test_beneficial_slope_contrast_is_one_per_month(scenarios):
    table = simulate_science_table(scenarios["beneficial"], seed=5)
    for p in records(table):
        for v, y1 in p.y1.items():
            if v in p.y0:
                assert y1 - p.y0[v] == pytest.approx(v, abs=1e-9)


def test_rank_preservation_empties_harmed_stratum(scenarios):
    # treated scale exceeds control scale for every x, so nobody is harmed
    table = simulate_science_table(scenarios["beneficial"], seed=7)
    for p in records(table):
        assert p.t1 > p.t0
        for t in table.visit_times:
            assert classify_stratum(p.t0, p.t1, t) is not Stratum.LD


def test_assignment_is_exactly_balanced(scenarios):
    table = simulate_science_table(scenarios["no_effect"], seed=9)
    assert table.w.sum() == len(table) // 2


def test_reproducible_given_params_and_seed(scenarios):
    a, b, c = (science_to_json(simulate_science_table(scenarios["mixed"], seed=seed))
               for seed in (21, 21, 22))
    assert a == b
    assert a != c


def test_child_seed_streams_are_stable_and_distinct():
    s1 = child_seed(5, "alpha", 3)
    s2 = child_seed(5, "alpha", 3)
    s3 = child_seed(5, "alpha", 4)
    assert np.random.default_rng(s1).uniform() == np.random.default_rng(s2).uniform()
    assert np.random.default_rng(s1).uniform() != np.random.default_rng(s3).uniform()


def test_nonpositive_scale_rejected(scenarios):
    bad = scenarios["no_effect"].with_updates(th0_0=0.5, th0_x=1.0, n=500)
    with pytest.raises(ScenarioError):
        simulate_science_table(bad, seed=1)


def test_unknown_scenario_key_rejected():
    doc = json.loads(resources.files("tbd").joinpath("scenarios.json").read_text())["mixed"]
    assert _params_from_dict("mixed", doc).th1_0 == 10.0  # "description" is allowed
    with pytest.raises(ScenarioError, match="treated_as_increment"):
        _params_from_dict("mixed", {**doc, "treated_as_increment": True})


class TestObserve:
    def test_death_truncates_trajectory(self, scenarios):
        table = simulate_science_table(scenarios["mixed"], seed=13)
        data = observe(table)
        for truth, obs in zip(records(table), oracles.patients(data)):
            td = truth.death_time(truth.w)
            if td <= 15.0:
                assert obs.d_obs == 1 and obs.t_obs == td
            else:
                assert obs.d_obs == 0 and obs.t_obs == 15.0
            assert set(obs.y_obs) == {v for v in table.visit_times if v < td}

    def test_row_count_matches_n(self, scenarios):
        table = simulate_science_table(scenarios["no_effect"], seed=13)
        assert len(observe(table)) == scenarios["no_effect"].n

    def test_early_death_keeps_only_early_visits(self, scenarios):
        # a treated patient dying at month 8 carries visits 3 and 6 only
        table = simulate_science_table(scenarios["mixed"], seed=13)
        data = observe(table)
        victims = [p for p in oracles.patients(data) if p.d_obs == 1 and 6 < p.t_obs <= 9]
        assert victims
        for p in victims:
            assert set(p.y_obs) == {3.0, 6.0}


class TestTrueEstimands:
    def test_no_effect_truths_are_exact(self, scenarios):
        for name in ("no_effect", "no_effect_no_censoring"):
            table = simulate_science_table(scenarios[name], seed=2)
            for t in table.visit_times:
                tr = true_estimands(table, t)
                assert tr.sace == 0.0
                assert tr.pc == 0.5
                assert tr.sim == 0.0
                assert tr.rmst == 0.0

    def test_beneficial_truths(self, scenarios):
        table = simulate_science_table(scenarios["beneficial"], seed=2)
        for t in table.visit_times:
            tr = true_estimands(table, t)
            assert tr.sace == pytest.approx(t, abs=1e-9)
            assert tr.pc == 1.0
        tr6 = true_estimands(table, 6.0)
        assert tr6.sim == pytest.approx(6.0)
        assert tr6.rmst == pytest.approx(0.17, abs=0.08)  # Monte Carlo tolerance

    def test_mixed_truths_at_month_nine(self, scenarios):
        # aggregate a few tables to beat Monte Carlo noise on the 0.50 target
        pcs = []
        sims = []
        for seed in range(6):
            table = simulate_science_table(scenarios["mixed"], seed=seed)
            tr = true_estimands(table, 9.0)
            pcs.append(tr.pc)
            sims.append(tr.sim)
        assert np.mean(pcs) == pytest.approx(0.50, abs=0.05)
        # the median order statistic straddles the infinite mass boundary, so
        # undefined (infinite) medians must occur
        assert any(s is not None and math.isinf(s) for s in sims)

    def test_empty_always_survivor_stratum_reports_undefined(self, scenarios):
        params = scenarios["mixed"].with_updates(th0_0=2.0, th1_0=2.0, th0_x=0.0, th1_x=0.0, n=20)
        table = simulate_science_table(params, seed=4)
        tr = true_estimands(table, 15.0)
        assert tr.sace is None
        assert tr.n_ll == 0

    def test_rejects_non_visit_time(self, scenarios):
        table = simulate_science_table(scenarios["no_effect"], seed=2)
        with pytest.raises(ValueError):
            true_estimands(table, 7.5)


class TestExtendedMedian:
    """``mass_median`` with unit masses, the infinite values as runs of them:
    the order-statistic median over the extended reals, as
    ``true_estimands`` takes it."""

    @staticmethod
    def median(values):
        vals = np.asarray(values, dtype=float)
        finite = np.sort(vals[np.isfinite(vals)], kind="stable")[None]
        runs = (np.ones((1, int(np.count_nonzero(vals == inf)))) for inf in (-math.inf, math.inf))
        return float(mass_median(finite, np.ones_like(finite), len(vals) / 2, *runs)[0])

    def test_odd_takes_middle(self):
        assert self.median([3.0, -1.0, 2.0]) == 2.0

    def test_even_averages_middle_pair(self):
        assert self.median([1.0, 2.0, 3.0, 10.0]) == 2.5

    def test_same_sign_infinities_average_to_that_infinity(self):
        assert self.median([1.0, math.inf, math.inf, math.inf, math.inf, math.inf, 0, 0]) == math.inf

    def test_opposite_sign_infinities_are_undefined(self):
        assert math.isnan(self.median([-math.inf, math.inf]))

    def test_infinite_with_finite_yields_the_infinity(self):
        assert self.median([-math.inf, 5.0]) == -math.inf
        assert self.median([5.0, math.inf]) == math.inf


def _bits(value):
    """A value as its exact repr: floats by ``repr(float)``, so -0.0, inf and
    every last bit count."""
    if value is None or isinstance(value, (int, np.integer)):
        return value
    return repr(float(value))


def _same_record(got, want):
    assert {k: _bits(v) for k, v in vars(got).items()} == {k: _bits(v) for k, v in vars(want).items()}


VISITS = (3.0, 6.0, 9.0, 12.0)


def _random_time(rng):
    """A death time, on a visit time (or 1.5 or 20) more often than not."""
    if rng.uniform() < 0.6:
        return float(rng.choice([1.5, 3.0, 6.0, 9.0, 12.0, 20.0]))
    return float(rng.uniform(0.5, 20.0))


def _random_table(rng, n):
    """A science table with deaths on the visit times, at the horizon and
    equal under both arms, and tied scores, so ties occur often."""
    patients = []
    for i in range(n):
        t0 = _random_time(rng)
        t1 = t0 if rng.uniform() < 0.3 else _random_time(rng)
        y = {v: float(rng.choice([-2.0, 0.0, 1.5]) if rng.uniform() < 0.3 else rng.normal(-5, 4))
             for v in VISITS}
        patients.append(PatientTruth(
            id=i, x=(float(rng.normal()),), w=int(rng.integers(2)),
            y0={v: y[v] for v in VISITS if v < t0},
            y1={v: y[v] + float(rng.choice([0.0, 1.0])) for v in VISITS if v < t1},
            t0=t0, t1=t1,
        ))
    return science_table(patients, 15.0, VISITS)


def _patient(id, t0, t1, y0=None, y1=None, w=0):
    return PatientTruth(id=id, x=(0.0,), w=w, y0=y0 or {}, y1=y1 or {}, t0=t0, t1=t1)


class TestTruthsAgainstOracle:
    """``true_estimands`` and ``mae_reconstruction`` are array code; the
    per-patient reference in ``tests/oracles.py`` must give the same bits."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        table = _random_table(rng, n=int(rng.choice([1, 2, 3, 4, 7, 30, 101])))
        imputed = rng.normal(-5, 4, size=len(table))
        for t in VISITS:
            _same_record(true_estimands(table, t), oracles.true_estimands(table, t))
            assert _bits(mae_reconstruction(table, imputed, t)) == _bits(
                oracles.mae_reconstruction(table, imputed, t))

    @pytest.mark.parametrize("name", ["no_effect_no_censoring", "no_effect", "beneficial", "mixed"])
    @pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (200, 2), (2001, 3)])
    def test_library_tables(self, scenarios, name, n, seed):
        table = simulate_science_table(scenarios[name].with_updates(n=n), seed=seed)
        imputed = np.random.default_rng(seed).normal(-10, 5, size=n)
        for t in table.visit_times:
            _same_record(true_estimands(table, t), oracles.true_estimands(table, t))
            assert _bits(mae_reconstruction(table, imputed, t)) == _bits(
                oracles.mae_reconstruction(table, imputed, t))

    def test_equal_death_times_tie(self):
        table = science_table((_patient(0, 5.0, 5.0), _patient(1, 7.0, 7.0)), 15.0, (9.0,))
        tr = true_estimands(table, 9.0)
        _same_record(tr, oracles.true_estimands(table, 9.0))
        assert (tr.pc, tr.sim, tr.rmst, tr.sace, tr.n_ll) == (0.5, 0.0, 0.0, None, 0)

    def test_death_at_the_horizon_counts_as_dead(self):
        # the control death at t == 6 loses to the treated survivor
        table = science_table((_patient(0, 6.0, 8.0, y0={3.0: -1.0}, y1={3.0: -1.0, 6.0: -9.0}),),
                              15.0, (6.0,))
        tr = true_estimands(table, 6.0)
        _same_record(tr, oracles.true_estimands(table, 6.0))
        assert (tr.pc, tr.sim, tr.sace, tr.death_frac_control) == (1.0, math.inf, None, 1.0)

    def test_single_patient(self):
        table = science_table((_patient(0, 20.0, 20.0, y0={3.0: -1.0}, y1={3.0: 0.5}),), 15.0, (3.0,))
        tr = true_estimands(table, 3.0)
        _same_record(tr, oracles.true_estimands(table, 3.0))
        assert (tr.sace, tr.pc, tr.sim, tr.n_ll) == (1.5, 1.0, 1.5, 1)

    def test_opposite_infinite_pair_has_no_median(self):
        # one treated-only survivor (+inf) and one control-only survivor (-inf)
        table = science_table((_patient(0, 2.0, 20.0, y1={3.0: 0.0}),
                               _patient(1, 20.0, 2.0, y0={3.0: 0.0})), 15.0, (3.0,))
        tr = true_estimands(table, 3.0)
        _same_record(tr, oracles.true_estimands(table, 3.0))
        assert tr.sim is None and tr.sace is None and tr.pc == 0.5

    def test_empty_always_survivor_stratum(self):
        table = science_table((_patient(0, 2.0, 20.0, y1={3.0: 0.0}), _patient(1, 1.0, 2.5)),
                              15.0, (3.0,))
        tr = true_estimands(table, 3.0)
        _same_record(tr, oracles.true_estimands(table, 3.0))
        assert tr.sace is None and tr.n_ll == 0

    def test_survivor_without_a_value_raises(self):
        with pytest.raises(InvariantError, match="y1 of patient 1 has no finite value at month 3.0"):
            science_table((_patient(0, 20.0, 20.0, y0={3.0: 0.0}, y1={3.0: 0.0}),
                           _patient(1, 20.0, 20.0, y0={3.0: 0.0})), 15.0, (3.0,))


def _u_loading(scenarios):
    """``beneficial`` with the unmeasured covariate u in both arms' slopes
    and scales: the only simulator path that draws u."""
    params = scenarios["beneficial"].with_updates(name="beneficial_u", a0_u=0.5, a1_u=0.5,
                                                  th0_u=2.0, th1_u=2.0)
    assert params.uses_unmeasured
    return params


class TestColumnsAgainstRecords:
    """The simulator, ``science.json`` and ``observe`` build columns; the
    per-record code in ``tests/oracles.py`` must give the same bits."""

    @pytest.mark.parametrize("name", ["no_effect_no_censoring", "no_effect", "beneficial", "mixed",
                                      "beneficial_u"])
    @pytest.mark.parametrize("n", [1, 2, 200, 2003])
    def test_library_tables(self, scenarios, name, n):
        params = (_u_loading(scenarios) if name == "beneficial_u" else scenarios[name]).with_updates(n=n)
        table = simulate_science_table(params, seed=n)
        want = oracles.simulate_records(params, seed=n)
        file = params.follow_up, params.visit_times
        assert json.dumps(science_to_json(table), sort_keys=True) == json.dumps(
            oracles.file_doc(want, *file), sort_keys=True)
        data, want_obs = observe(table), oracles.observed_records(want, params.follow_up)
        oracles.assert_same_columns(data, oracles.observe(want, *file))
        assert json.dumps(observed_to_json(data), sort_keys=True) == json.dumps(
            oracles.file_doc(want_obs, *file), sort_keys=True)
        assert oracles.patients(data) == want_obs
        assert records(table) == want
