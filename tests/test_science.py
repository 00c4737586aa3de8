"""Strata classification, composite ordering/metric, and data-model checks.

The scalar strata and composite definitions live in ``tests/oracles.py``;
the package evaluates them as array code."""

import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from oracles import (
    CompositeOutcome,
    ObservedRecord,
    PatientTruth,
    Stratum,
    assert_same_columns,
    classify_stratum,
    composite_metric,
    composite_order,
    full_row_mass_median,
    observed_composite,
    observed_dataset,
    observed_records,
    patients,
    potential_composite,
    records,
    science_table,
)
from tbd.cli import PosteriorFile
from tbd.codec import DecodeError, decode, encode
from tbd.longitudinal import LongitudinalPosterior
from tbd.mcmc import McmcConfig
from tbd.science import (
    InvariantError,
    ObservedPatient,
    OutputRefused,
    dump_json,
    load_json,
    mass_median,
    observed_from_json,
    observed_to_json,
    science_to_json,
    ScienceTable,
    ObservedDataset,
    replacing,
)
from tbd.simulate import get_scenario, observe, simulate_science_table
from tbd.study import StudyConfig, fit_posteriors, run_cell

times = st.floats(min_value=0.01, max_value=50, allow_nan=False)
scores = st.floats(min_value=-60, max_value=60, allow_nan=False)


class TestClassifyStratum:
    def test_harmed_patient_dies_only_under_treatment(self):
        assert classify_stratum(18, 8, 15) is Stratum.LD

    def test_always_survivor(self):
        assert classify_stratum(18, 18, 15) is Stratum.LL

    def test_never_survivor(self):
        assert classify_stratum(4, 10, 12) is Stratum.DD

    def test_protected(self):
        assert classify_stratum(5, 20, 15) is Stratum.DL

    def test_death_at_horizon_counts_as_dead(self):
        assert classify_stratum(15.0, 20.0, 15.0) is Stratum.DL

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
    def test_nonpositive_inputs_rejected(self, bad):
        with pytest.raises(ValueError):
            classify_stratum(*bad)

    @given(t0=times, t1=times, t=times)
    def test_partition_exhaustive(self, t0, t1, t):
        stratum = classify_stratum(t0, t1, t)
        expected = {
            (True, True): Stratum.LL,
            (True, False): Stratum.LD,
            (False, True): Stratum.DL,
            (False, False): Stratum.DD,
        }[(t0 > t, t1 > t)]
        assert stratum is expected


def _alive(y):
    return CompositeOutcome(y=y, t=15.0, d=0)


def _dead(td):
    return CompositeOutcome(y=None, t=td, d=1)


class TestCompositeOrderAndMetric:
    def test_protected_beats_control_death(self):
        assert composite_order(_alive(-2.0), _dead(6.0)) == 1
        assert composite_metric(_alive(-2.0), _dead(6.0)) == math.inf

    def test_equal_survivor_scores_tie(self):
        assert composite_order(_alive(-4.0), _alive(-4.0)) == 0
        assert composite_metric(_alive(-4.0), _alive(-4.0)) == 0.0

    def test_both_dead_earlier_treated_death_is_worse(self):
        assert composite_order(_dead(5.0), _dead(9.0)) == -1
        assert composite_metric(_dead(5.0), _dead(9.0)) == -math.inf

    def test_both_dead_later_treated_death_is_better(self):
        assert composite_order(_dead(9.0), _dead(5.0)) == 1
        assert composite_metric(_dead(9.0), _dead(5.0)) == math.inf

    def test_survivor_difference_is_plain_score_difference(self):
        assert composite_metric(_alive(-5.0), _alive(-6.0)) == pytest.approx(1.0)

    def test_dead_ties_have_zero_distance(self):
        assert composite_metric(_dead(7.0), _dead(7.0)) == 0.0

    def test_treated_death_loses_to_survivor(self):
        assert composite_order(_dead(12.0), _alive(-30.0)) == -1
        assert composite_metric(_dead(12.0), _alive(-30.0)) == -math.inf

    def test_inconsistent_outcome_rejected(self):
        with pytest.raises(InvariantError):
            CompositeOutcome(y=-1.0, t=5.0, d=1)
        with pytest.raises(InvariantError):
            CompositeOutcome(y=None, t=15.0, d=0)

    @given(
        y1=st.one_of(scores, st.none()),
        y0=st.one_of(scores, st.none()),
        t1=times,
        t0=times,
    )
    def test_order_and_metric_agree(self, y1, y0, t1, t0):
        z1 = _alive(y1) if y1 is not None else _dead(t1)
        z0 = _alive(y0) if y0 is not None else _dead(t0)
        order = composite_order(z1, z0)
        metric = composite_metric(z1, z0)
        if order > 0:
            assert metric > 0
        elif order < 0:
            assert metric < 0
        else:
            assert metric == 0


class TestExtendedRealOrdering:
    values = st.one_of(
        st.just(-math.inf), st.just(math.inf), st.floats(-1e6, 1e6, allow_nan=False)
    )

    @given(a=values, b=values, c=values)
    def test_total_order(self, a, b, c):
        assert (a <= b) or (b <= a)
        if a <= b and b <= a:
            assert a == b
        if a <= b and b <= c:
            assert a <= c

    def test_infinities_bracket_all_finites(self):
        assert -math.inf < -1e308 and 1e308 < math.inf


def _patient_truth(**kwargs):
    defaults = dict(
        id=0,
        x=(0.5,),
        w=1,
        y0={3.0: -6.0},
        y1={3.0: -3.0, 6.0: -6.0},
        t0=4.0,
        t1=8.0,
    )
    defaults.update(kwargs)
    return PatientTruth(**defaults)


def _columns(**kwargs):
    """The columns of a two-patient table at visits 3 and 6: one dying at
    month 4 under control, one alive throughout; ``kwargs`` replace some."""
    nan = math.nan
    cols = dict(x=[[0.5], [0.0]], w=[1, 0], t0=[4.0, 20.0], t1=[8.0, 20.0],
                y0=[[-6.0, nan], [-1.0, -2.0]], y1=[[-3.0, -6.0], [-1.0, -2.0]],
                follow_up=15.0, visit_times=(3.0, 6.0))
    return {**cols, **kwargs}


def _observed_columns(**kwargs):
    """The columns of a three-patient dataset at visits 3, 6 and 15: a death
    at month 6, measured there too, a censored patient and a death at 9.5;
    ``kwargs`` replace some."""
    nan = math.nan
    cols = dict(id=[0, 1, 2], x=[[0.5], [-1.0], [0.0]], w=[1, 0, 0], t_obs=[6.0, 15.0, 9.5],
                d_obs=[1, 0, 1], y=[[-3.0, -6.0, nan], [-1.0, nan, -2.0], [1.0, 2.0, nan]],
                follow_up=15.0, visit_times=(3.0, 6.0, 15.0))
    return {**cols, **kwargs}


class TestDataModel:
    def test_trajectory_after_death_rejected(self):
        with pytest.raises(InvariantError):  # dies at 4 under control
            science_table([_patient_truth(y0={3.0: -6.0, 6.0: -12.0})], 15.0, (3.0, 6.0))

    def test_nonpositive_death_time_rejected(self):
        with pytest.raises(InvariantError):
            science_table([_patient_truth(t0=0.0)], 15.0, (3.0, 6.0))

    def test_columns_are_read_only_and_at_gives_the_scores(self):
        table = ScienceTable(**_columns())
        assert len(table) == 2 and table.w.dtype.kind == "i"
        for name in ("x", "w", "t0", "t1", "y0", "y1"):
            assert not getattr(table, name).flags.writeable, name
        y0, y1 = table.at(6.0)
        np.testing.assert_array_equal(y0, [math.nan, -2.0])
        np.testing.assert_array_equal(y1, [-6.0, -2.0])
        with pytest.raises(ValueError, match="not a visit time"):
            table.at(4.5)

    @pytest.mark.parametrize("change, refused", [
        (dict(y0=[[-6.0, -12.0], [-1.0, -2.0]]), "y0 of patient 0 has a value at month 6.0, death at 4.0"),
        (dict(y1=[[-3.0, math.nan], [-1.0, -2.0]]), "y1 of patient 0 has no finite value at month 6.0"),
        (dict(y1=[[-3.0, -6.0], [math.inf, -2.0]]), "y1 of patient 1 has no finite value at month 3.0"),
        (dict(t0=[0.0, 20.0]), "t0 must be positive and finite, got 0.0"),
        (dict(t0=[4.0, math.inf]), "t0 must be positive and finite, got inf"),
        (dict(w=[1, 2]), "treatment w must be 0 or 1, got 2"),
        (dict(t1=[8.0]), "(n, 2 visits); got {'x': (2, 1), 'w': (2,), 't0': (2,), 't1': (1,)"),
        (dict(y0=[[-6.0], [-1.0]]), "'y0': (2, 1)"),
        (dict(x=[0.5, 0.0]), "got {'x': (2,)"),
    ], ids=["score-after-death", "missing-score-while-alive", "infinite-score", "t0-zero",
            "t0-infinite", "arm-2", "short-column", "too-few-visits", "x-not-a-matrix"])
    def test_constructor_refuses(self, change, refused):
        with pytest.raises(InvariantError, match=re.escape(refused)):
            ScienceTable(**_columns(**change))

    @pytest.mark.parametrize("change, refused", [
        (dict(w=[1, 2, 0]), "treatment w must be 0 or 1, got 2"),
        (dict(w=[1, 0, 0.5]), "treatment w must be 0 or 1, got 0.5"),
        (dict(d_obs=[1, 0, 3]), "d_obs must be 0 or 1, got 3"),
        (dict(t_obs=[6.0, 15.0, -1.0]), "t_obs must be positive and finite, got -1.0"),
        (dict(t_obs=[math.nan, 15.0, 9.5]), "t_obs must be positive and finite, got nan"),
        (dict(t_obs=[6.0, 15.0, 40.0]), "death at t_obs 40.0 after follow-up 15.0"),
        (dict(t_obs=[6.0, 10.0, 9.5], y=[[-3.0, -6.0, math.nan], [-1.0, math.nan, math.nan],
                                         [1.0, 2.0, math.nan]]),
         "censored patients must carry t_obs = follow_up"),
        (dict(y=[[-3.0, -6.0, math.nan], [-1.0, math.nan, -2.0], [1.0, 2.0, 3.0]]),
         "y_obs has a value at month 15.0 after death at 9.5"),
        (dict(y=[[-3.0, -6.0, math.nan], [-1.0, math.inf, -2.0], [1.0, 2.0, math.nan]]),
         "y_obs has a non-finite value at month 6.0"),
        (dict(follow_up=0.0), "follow_up must be positive and finite, got 0.0"),
        (dict(follow_up=math.inf), "follow_up must be positive and finite, got inf"),
        (dict(visit_times=(3.0, 3.0, 15.0)), "visit times must be finite, strictly increasing"),
        (dict(x=np.zeros((3, 0))), "covariate vectors must hold at least one covariate, got 0"),
        (dict(x=[0.5, -1.0, 0.0]), "got {'x': (3,)"),
        (dict(t_obs=[6.0, 15.0]), "'t_obs': (2,)"),
        (dict(id=[0, 1]), "'id': (2,)"),
        (dict(y=[[-3.0], [-1.0], [1.0]]), "(n, 3 visits); got {"),
    ], ids=["arm-2", "arm-half", "d-obs-3", "negative-time", "nan-time", "death-after-follow-up",
            "censored-early", "score-after-death", "infinite-score", "zero-follow-up",
            "infinite-follow-up", "repeated-visit", "no-covariates", "x-not-a-matrix",
            "short-column", "short-ids", "too-few-visits"])
    def test_observed_constructor_refuses(self, change, refused):
        with pytest.raises(InvariantError, match=re.escape(refused)):
            ObservedDataset(**_observed_columns(**change))

    def test_observed_columns_are_read_only(self):
        data = ObservedDataset(**_observed_columns())
        assert len(data) == 3
        assert [getattr(data, c).dtype.kind for c in ("id", "w", "d_obs")] == ["i"] * 3
        for name in ("id", "x", "w", "t_obs", "d_obs", "y"):
            assert not getattr(data, name).flags.writeable, name
        for t in (*data.visit_times, 7.5):
            for name in ("alive", "measured", "y"):
                assert not getattr(data.at(t), name).flags.writeable, (t, name)

    @pytest.mark.parametrize("y_obs, refused", [
        ({3.0: 1.0, 4.0: 2.0},
         "patient 7 has a value at month 4.0, which is not a visit time [3.0, 6.0]"),
        ({3.0: math.nan}, "y_obs has a non-finite value at month 3.0"),
    ], ids=["non-visit-month", "nan-score"])
    def test_records_are_refused_before_the_columns(self, y_obs, refused):
        record = ObservedRecord(id=7, x=(0.0,), w=0, t_obs=15.0, d_obs=0, y_obs=y_obs)
        with pytest.raises(InvariantError, match=re.escape(refused)):
            observed_dataset([record], 15.0, (3.0, 6.0))

    def test_a_score_at_the_month_of_death_is_kept_and_not_measured(self):
        record = ObservedRecord(id=0, x=(0.0,), w=0, t_obs=6.0, d_obs=1, y_obs={3.0: 1.0, 6.0: 2.0})
        data = observed_dataset([record], 15.0, (3.0, 6.0))
        np.testing.assert_array_equal(data.y, [[1.0, 2.0]])
        assert data.at(3.0).measured.tolist() == [True]
        assert data.at(6.0).measured.tolist() == data.at(6.0).alive.tolist() == [False]
        assert patients(observed_from_json(observed_to_json(data))) == (record,)

    def test_censored_patient_must_sit_at_follow_up(self):
        patient = ObservedRecord(id=0, x=(0.0,), w=0, t_obs=10.0, d_obs=0, y_obs={})
        with pytest.raises(InvariantError, match="censored patients must carry t_obs = follow_up"):
            observed_dataset([patient], 15.0)

    def test_alive_at_uses_strict_death_time(self):
        p = ObservedRecord(
            id=0, x=(0.0,), w=0, t_obs=9.0, d_obs=1, y_obs={3.0: -1.0}
        )
        assert p.alive_at(8.9)
        assert not p.alive_at(9.0)
        assert not p.alive_at(12.0)
        data = observed_dataset([p], 15.0)
        assert [data.at(t).alive[0] for t in (8.9, 9.0, 12.0)] == [True, False, False]

    def test_observed_composite_branches(self):
        p = ObservedRecord(
            id=0, x=(0.0,), w=1, t_obs=9.0, d_obs=1,
            y_obs={3.0: -1.0, 6.0: -2.0},
        )
        assert observed_composite(p, 6.0) == CompositeOutcome(y=-2.0, t=6.0, d=0)
        assert observed_composite(p, 12.0) == CompositeOutcome(y=None, t=9.0, d=1)

    def test_potential_composite_branches(self):
        p = _patient_truth()
        assert potential_composite(p, 1, 6.0) == CompositeOutcome(y=-6.0, t=6.0, d=0)
        assert potential_composite(p, 0, 6.0) == CompositeOutcome(y=None, t=4.0, d=1)

    def test_json_round_trip(self):
        obs = observed_dataset(
            [ObservedRecord(id=0, x=(0.5,), w=1, t_obs=8.0, d_obs=1, y_obs={3.0: -3.0, 6.0: -6.0})],
            15.0, (3.0, 6.0))
        assert_same_columns(observed_from_json(observed_to_json(obs)), obs)

    def test_json_visit_keys_are_decimal_month_strings(self):
        obs = observed_dataset(
            [ObservedRecord(id=0, x=(0.0,), w=0, t_obs=15.0, d_obs=0,
                            y_obs={3.0: -1.0, 4.5: -2.0})],
            15.0)
        doc = observed_to_json(obs)
        assert set(doc["patients"][0]["y_obs"]) == {"3", "4.5"}

    def test_codec_float_keys_round_trip_as_decimal_month_strings(self):
        doc = encode({3.0: -1.0, 4.5: -2.0})
        assert doc == {"3": -1.0, "4.5": -2.0}
        assert decode(dict[float, float], json.loads(json.dumps(doc))) == {3.0: -1.0, 4.5: -2.0}
        assert decode(dict[str, float], doc) == doc

    def test_observed_file_text(self):
        # the whole format, pinned: the follow-up once at the top, none per patient
        obs = observed_dataset([
            ObservedRecord(id=0, x=(0.5, -1.0), w=1, t_obs=8.0, d_obs=1,
                           y_obs={3.0: -3.0, 4.5: -4.25, 6.0: -6.0}),
            ObservedRecord(id=1, x=(0.0, 2.0), w=0, t_obs=15.0, d_obs=0,
                           y_obs={3.0: -1.5, 15.0: 2.0}),
        ], 15.0, (3.0, 4.5, 6.0, 15.0))
        text = (
            '{"follow_up_months": 15.0, "patients": ['
            '{"d_obs": 1, "id": 0, "t_obs": 8.0, "w": 1, "x": [0.5, -1.0], '
            '"y_obs": {"3": -3.0, "4.5": -4.25, "6": -6.0}}, '
            '{"d_obs": 0, "id": 1, "t_obs": 15.0, "w": 0, "x": [0.0, 2.0], '
            '"y_obs": {"15": 2.0, "3": -1.5}}], '
            '"visit_times": [3.0, 4.5, 6.0, 15.0]}'
        )
        assert json.dumps(observed_to_json(obs), sort_keys=True) == text
        assert_same_columns(observed_from_json(json.loads(text)), obs)

    def test_science_file_text(self):
        # ids are the row indices: the record's id 7 is not kept
        table = science_table([_patient_truth(id=7, y1={3.0: -3.0, 4.5: -4.5, 6.0: -6.0})],
                              15.0, (3.0, 4.5, 6.0))
        text = (
            '{"follow_up_months": 15.0, "patients": ['
            '{"id": 0, "t0": 4.0, "t1": 8.0, "w": 1, "x": [0.5], "y0": {"3": -6.0}, '
            '"y1": {"3": -3.0, "4.5": -4.5, "6": -6.0}}], '
            '"visit_times": [3.0, 4.5, 6.0]}'
        )
        assert json.dumps(science_to_json(table), sort_keys=True) == text


def _same_bits(a, b):
    """Equal arrays, NaN where NaN, and every zero of the same sign."""
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[~np.isnan(a)]), np.signbit(b[~np.isnan(b)])))


def _median_both_ways(values, masses, half, below, above):
    """``mass_median`` of the finite atoms and the masses at -inf and +inf,
    and the oracle's over the whole row [-inf x a, values, +inf x b]."""
    rows = len(values)
    full_values = np.concatenate([np.full((rows, below.shape[1]), -np.inf), values,
                                  np.full((rows, above.shape[1]), np.inf)], axis=1)
    full_masses = np.concatenate([below, masses, above], axis=1)
    return (mass_median(values, masses, half, below, above),
            full_row_mass_median(full_values, full_masses, half))


# masses that sum exactly (dyadic), masses under _MASS_TOL, zeros and any others
_masses = st.one_of(st.sampled_from([0.0, 1e-13, 0.125, 0.25, 0.5, 0.75, 1.0]),
                    st.floats(0.0, 1.0))
# a few values, so that finite atoms tie, -0.0 among them
_values = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -2.5]), st.floats(-1e6, 1e6))


class TestMassMedian:
    """``mass_median`` over the finite atoms, with the masses at -inf and
    +inf alone, against the oracle's whole rows, bit for bit."""

    @given(st.data())
    def test_patient_rows_match_the_full_row(self, data):
        # rows as SIM builds them: survivors have a finite atom of mass s and
        # an infinite one of mass 1 - s; deaths two infinite atoms, s and
        # 1 - s on opposite sides. Every row's masses add up to about n.
        n_surv = data.draw(st.integers(0, 12))
        dead_low = data.draw(st.integers(0, 6))  # deaths with mass s at -inf
        dead_high = data.draw(st.integers(0, 6))  # deaths with mass s at +inf
        surv_low = data.draw(st.lists(st.booleans(), min_size=n_surv, max_size=n_surv))
        n = n_surv + dead_low + dead_high
        if not n:
            return
        rows = data.draw(st.integers(1, 4))
        draw = lambda count: np.array(data.draw(
            st.lists(st.lists(_masses, min_size=count, max_size=count),
                     min_size=rows, max_size=rows))).reshape(rows, count)
        s_surv, s_low, s_high = draw(n_surv), draw(dead_low), draw(dead_high)
        values = np.sort(np.array(data.draw(st.lists(
            st.lists(_values, min_size=n_surv, max_size=n_surv), min_size=rows, max_size=rows)))
            .reshape(rows, n_surv) + 0.0, axis=1)
        low = np.array(surv_low, dtype=bool)
        below = np.concatenate([1.0 - s_surv[:, low], s_low, 1.0 - s_high], axis=1)
        above = np.concatenate([1.0 - s_surv[:, ~low], 1.0 - s_low, s_high], axis=1)
        got, want = _median_both_ways(values, s_surv, n / 2.0, below, above)
        assert _same_bits(got, want), (got, want)

    @given(below=st.lists(_masses, max_size=20), finite=st.lists(st.tuples(_values, _masses),
           max_size=20), above=st.lists(_masses, max_size=20))
    # the half point on the -inf run's end, then a later -inf atom under the tolerance
    @example(below=[1.0, 1e-13], finite=[], above=[1.0])
    @example(below=[1.0, 0.0], finite=[], above=[1.0])
    # exactly on half among the finite atoms, and at the +inf edge
    @example(below=[0.25], finite=[(-1.0, 0.75), (2.0, 0.5), (3.0, 0.5)], above=[])
    @example(below=[0.5], finite=[(-0.0, 0.5), (0.0, 0.0)], above=[1.0])
    # masses that a pairwise sum rounds apart from a running one
    @example(below=[0.1] * 10, finite=[(1.0, 0.3)] * 10, above=[0.7] * 10)
    def test_any_row_matches_the_full_row(self, below, finite, above):
        # one row of at least one atom, its half point half its running
        # total: wherever it lands it is reached, as the masses add up to 2 * half
        assume(below or finite or above)
        finite = sorted(finite, key=lambda atom: atom[0])
        values = np.array([[v + 0.0 for v, _ in finite]]).reshape(1, -1)
        masses = np.array([[m for _, m in finite]]).reshape(1, -1)
        below, above = np.array([below]).reshape(1, -1), np.array([above]).reshape(1, -1)
        half = np.cumsum(np.concatenate([below, masses, above], axis=1))[-1] / 2
        got, want = _median_both_ways(values, masses, half, below, above)
        assert _same_bits(got, want), (got, want)

    @pytest.mark.parametrize("below, finite, above, median", [
        ([1.0, 1e-13], [], [1.0], -math.inf),  # a later -inf atom, however light
        ([1.0, 0.0], [], [1.0], math.nan),  # none: opposite infinities
        ([0.5], [(-1.0, 0.5), (3.0, 1.0)], [], 1.0),  # between two finite atoms
        ([0.5], [(-1.0, 0.5)], [1.0], math.inf),  # at the +inf edge
        ([], [(2.0, 1.0), (4.0, 1.0)], [], 3.0),  # no infinite atom
        ([1.0], [], [], -math.inf),  # no finite atom, no +inf atom
    ])
    def test_exact_half_points(self, below, finite, above, median):
        values = np.array([[v for v, _ in finite]]).reshape(1, -1)
        masses = np.array([[m for _, m in finite]]).reshape(1, -1)
        below, above = np.array([below]).reshape(1, -1), np.array([above]).reshape(1, -1)
        half = (below.sum() + masses.sum() + above.sum()) / 2  # dyadic: exact
        got, want = _median_both_ways(values, masses, half, below, above)
        assert _same_bits(got, want) and _same_bits(got, np.array([median]))


    def test_finite_sums_continue_the_running_sum_of_the_low_run(self):
        # ten masses of 0.1 at -inf run to 0.9999999999999999, where np.sum
        # reads 1.0; the half point is set on 1.0, so a finite atom's
        # cumulative mass that started from np.sum would reach it one atom early
        below = np.full((1, 10), 0.1)
        values, masses = np.array([[5.0, 7.0]]), np.array([[0.0, 0.5]])
        half = 1.0 + 1e-12
        assert half - 1e-12 == 1.0 and np.sum(below) == 1.0 > np.cumsum(below)[-1]
        above = np.array([[2 * half - 1.5]])
        got, want = _median_both_ways(values, masses, half, below, above)
        assert _same_bits(got, want) and got[0] == 7.0


class TestObservedColumns:
    def _data(self):
        from tbd.simulate import get_scenario, observe, simulate_science_table

        params = get_scenario("mixed").with_updates(n=60)
        table = simulate_science_table(params, seed=5)
        return observe(table), observed_records(records(table), table.follow_up)

    @pytest.mark.parametrize("handmade", [False, True])
    def test_same_arrays_as_per_patient_comprehensions(self, handmade):
        # handmade: a death exactly at a visit, a censored patient, and a
        # survivor missing a measurement
        if handmade:
            ps = (
                ObservedRecord(id=0, x=(0.5, 1.0), w=1, t_obs=6.0, d_obs=1,
                               y_obs={3.0: -3.0, 6.0: -6.0}),
                ObservedRecord(id=1, x=(-1.0, 0.0), w=0, t_obs=15.0, d_obs=0,
                               y_obs={3.0: -1.0, 15.0: -2.0}),
                ObservedRecord(id=2, x=(0.0, 2.0), w=0, t_obs=9.5, d_obs=1,
                               y_obs={9.0: 1.5}),
            )
            data = observed_dataset(ps, 15.0, (3.0, 6.0, 9.0, 15.0))
        else:
            data, ps = self._data()
        expected = {
            "id": np.array([p.id for p in ps]),
            "w": np.array([p.w for p in ps]),
            "x": np.array([p.x for p in ps], dtype=float),
            "t_obs": np.array([p.t_obs for p in ps]),
            "d_obs": np.array([p.d_obs for p in ps]),
            "y": np.array([[p.y_obs.get(t, np.nan) for t in data.visit_times] for p in ps]),
        }
        for t in (*data.visit_times, 7.5):  # 7.5: no patient has a value there
            expected[f"alive@{t}"] = np.array([p.alive_at(t) for p in ps])
            expected[f"measured@{t}"] = np.array([p.alive_at(t) and t in p.y_obs for p in ps])
            expected[f"y@{t}"] = np.array([p.y_obs.get(t, np.nan) for p in ps])
        for key, want in expected.items():
            name, _, t = key.partition("@")
            got = getattr(data.at(float(t)), name) if t else getattr(data, name)
            assert got.dtype == want.dtype and got.shape == want.shape, key
            assert np.array_equal(got, want, equal_nan=True), key
            assert not got.flags.writeable, key
        assert patients(data) == ps

    def test_built_once_and_left_out_of_json_and_equality(self):
        data, _ = self._data()
        doc = observed_to_json(data)
        assert data.at(6.0) is data.at(6.0)
        assert observed_to_json(data) == doc
        assert set(doc) == {"patients", "follow_up_months", "visit_times"}
        again = observed_from_json(doc)
        assert_same_columns(again, data)
        assert again != data  # datasets compare by identity, not by value


class TestCodecGate:
    @pytest.mark.parametrize("hint, value, refused", [
        (str, 5, "expected a string, got 5"),
        (bool, 1.0, "expected a boolean, got 1.0"),
        (bool, "true", "expected a boolean, got 'true'"),
        (float, "7", "could not convert string to float: '7'"),
        (float, "NaN", "could not convert string to float: 'NaN'"),
        (float, None, "expected a number, got None"),
        (int, math.inf, "expected an integer, got inf"),
        (tuple[float, ...], "369", "expected a list, got '369'"),
        (tuple[float, ...], {"0": 5.0}, "expected a list, got {'0': 5.0}"),
        (np.ndarray, "12", "expected an object of ['float64le', 'shape'], got '12'"),
        (np.ndarray, [True, False],
         "expected an object of ['float64le', 'shape'], got [True, False]"),
        (dict[float, float], [1.0, 2.0], "expected an object, got [1.0, 2.0]"),
        (dict[str, dict[str, float]], {"sigma": [1.0]}, "expected an object, got [1.0]"),
        (McmcConfig, [4], "McmcConfig: expected an object, got [4]"),
    ], ids=["int-as-str", "float-as-bool", "str-as-bool", "digit-string", "other-nan-spelling",
            "null-float", "infinite-int", "string-as-tuple", "object-as-tuple", "string-as-array",
            "booleans-as-array",
            "list-as-dict", "list-in-dict", "list-as-dataclass"])
    def test_misshapen_value_is_refused(self, hint, value, refused):
        with pytest.raises(ValueError, match=re.escape(refused)):
            decode(hint, value)

    def test_refusal_names_the_dataclass_and_field(self):
        doc = {"id": 0, "x": "05", "w": 0, "t_obs": 15.0, "d_obs": 0, "y_obs": {}}
        with pytest.raises(DecodeError, match=re.escape("ObservedPatient.x: expected a list, got '05'")):
            decode(ObservedPatient, doc)
        with pytest.raises(DecodeError, match=re.escape("ObservedPatient.y_obs: expected an object")):
            decode(ObservedPatient, {**doc, "x": [0.0], "y_obs": [[3, 1.0]]})

    def test_non_finite_spellings_and_month_keys_still_read(self):
        back = decode(tuple[float, ...], [1.0, "nan", "-inf", 2])
        assert [type(v) for v in back] == [float] * 4
        np.testing.assert_array_equal(back, [1.0, math.nan, -math.inf, 2.0])
        assert decode(float, "inf") == math.inf and decode(int, 5.0) == 5
        assert decode(dict[float, float], {"3": 1.0, "4.5": "nan"}).keys() == {3.0, 4.5}
        assert decode(bool, False) is False and decode(str, "nan") == "nan"

    def test_numpy_booleans_are_written_as_booleans(self):
        post = LongitudinalPosterior(t=3.0, beta0=np.zeros((2, 2)), beta1=np.zeros((2, 2, 1)),
                                     sigma=np.ones(2), diagnostics={}, converged=np.bool_(True))
        doc = json.loads(json.dumps(post.to_json()))
        assert doc["converged"] is True
        assert LongitudinalPosterior.from_json(doc).converged is True
        with pytest.raises(DecodeError, match="LongitudinalPosterior.converged: expected a boolean"):
            LongitudinalPosterior.from_json({**doc, "converged": 1.0})  # as written before


# bit patterns a float64 array must keep through a file: quiet and
# signalling NaNs with payloads and either sign, the infinities, -0.0, the
# smallest and largest subnormals and the largest finite value
SPECIAL_BITS = (0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8DEADBEEF0001, 0x7FF0000000000001,
                0xFFF4000000000000, 0x7FF0000000000000, 0xFFF0000000000000, 0x8000000000000000,
                0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF)
array_shapes = st.one_of(
    st.tuples(st.integers(0, 7)),  # a draw axis alone, as sigma
    st.tuples(st.just(0), st.integers(1, 4)),  # (0, p): no draws
    st.tuples(st.integers(1, 4), st.just(2), st.integers(1, 3)),  # (k, 2, p), as beta1
    st.lists(st.integers(1, 4), min_size=2, max_size=3).map(tuple))
array_bits = array_shapes.flatmap(lambda shape: st.lists(
    st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1)),
    min_size=math.prod(shape), max_size=math.prod(shape)).map(
        lambda bits: np.array(bits, dtype="<u8").reshape(shape)))


class TestArrayFile:
    @given(bits=array_bits, layout=st.sampled_from(["c-order", "transposed", "big-endian"]))
    @example(bits=np.array(SPECIAL_BITS, dtype="<u8"), layout="big-endian")
    @example(bits=np.array(SPECIAL_BITS[:10], dtype="<u8").reshape(5, 2), layout="transposed")
    def test_round_trip_keeps_every_bit(self, tmp_path_factory, bits, layout):
        # encode -> dump_json -> load_json -> decode: the values, in C order,
        # as little-endian float64, whatever the input's strides and byte order
        if layout == "transposed":
            bits = bits.T  # written in its own C order, not the buffer's
            a = bits.view("<f8")
        elif layout == "big-endian":
            a = bits.byteswap().view(">f8")  # the same numbers, stored big-endian
        else:
            a = bits.view("<f8")
        path = tmp_path_factory.getbasetemp() / "array.json"
        dump_json({"a": encode(a)}, path)
        back = decode(np.ndarray, load_json(path)["a"])
        assert back.dtype == np.dtype("<f8") and back.shape == bits.shape
        assert back.tobytes() == np.ascontiguousarray(bits).tobytes()
        assert back.flags.writeable and back.flags.c_contiguous
        back[...] = 1.0  # writable: no view of a read-only buffer

    def test_posterior_arrays_read_back_writable_and_exact(self):
        rng = np.random.default_rng(5)
        post = LongitudinalPosterior(t=3.0, beta0=rng.normal(size=(6, 2)),
                                     beta1=rng.normal(size=(3, 2, 6)).T,
                                     sigma=np.array([np.nan, np.inf, -0.0, 5e-324, 1.0, 2.0]),
                                     diagnostics={"sigma": {"rhat": math.nan}}, converged=True)
        doc = json.loads(json.dumps(post.to_json()))
        assert doc["sigma"] == {"shape": [6], "float64le": "AAAAAAAA+H8AAAAAAADwfwAAAAAAAACA"
                                                       "AQAAAAAAAAAAAAAAAADwPwAAAAAAAABA"}
        assert doc["diagnostics"] == {"sigma": {"rhat": "nan"}}  # scalars keep the strings
        back = LongitudinalPosterior.from_json(doc)
        for name in ("beta0", "beta1", "sigma"):
            want, got = getattr(post, name), getattr(back, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            assert got.flags.writeable, name
            got *= 2.0


class TestFileGate:
    def test_interrupted_write_leaves_the_old_file_whole(self, tmp_path):
        path = tmp_path / "fits.json"
        dump_json({"old": [1.0, 2.0]}, path)
        before = path.read_bytes()
        with pytest.raises(TypeError):  # the encoder fails on the object
            dump_json({"a": list(range(10_000)), "b": object()}, path)
        with pytest.raises(RuntimeError):
            with replacing(path) as fh:
                fh.write('{"new": ')
                raise RuntimeError("killed mid-file")
        assert path.read_bytes() == before and load_json(path) == {"old": [1.0, 2.0]}
        assert [p.name for p in tmp_path.iterdir()] == ["fits.json"]

    def test_refusal_names_a_temporary_that_is_a_directory(self, tmp_path):
        (tmp_path / "t.json.tmp").mkdir()
        with pytest.raises(OutputRefused) as refused:
            dump_json({}, tmp_path / "t.json")
        assert str(refused.value) == (
            f"output {tmp_path / 't.json'} refused: Is a directory: {tmp_path / 't.json.tmp'}")
        assert (tmp_path / "t.json.tmp").is_dir() and not (tmp_path / "t.json").exists()

    @staticmethod
    def _json_dump_text(doc, indent=None):
        # the writer's former body: json.dump streams through the pure
        # Python encoder, whatever the indent
        buf = io.StringIO()
        json.dump(doc, buf, sort_keys=True, indent=indent)
        return buf.getvalue() + "\n"

    @pytest.fixture(scope="class")
    def study_docs(self):
        scenario = get_scenario("no_effect").with_updates(n=40)
        config = StudyConfig(scenarios=(scenario,), replicates=1, k_draws=20,
                             mcmc=McmcConfig(chains=2, samples=100, min_ess=5.0,
                                             rhat_threshold=2.0))
        table = simulate_science_table(scenario, seed=3)
        data = observe(table)
        fits = fit_posteriors(data, config)
        cell = run_cell(config, scenario, 0)
        return {"posteriors": (encode(PosteriorFile(fits.survival, fits.longitudinal)), None),
                "science": (science_to_json(table), None),
                "observed": (observed_to_json(data), None),
                "cell": ({"config_hash": config.content_hash(), "cell": cell.to_doc()}, 1)}

    @pytest.mark.parametrize("name", ["posteriors", "science", "observed", "cell"])
    def test_study_files_keep_json_dump_bytes(self, tmp_path, study_docs, name):
        doc, indent = study_docs[name]
        path = tmp_path / f"{name}.json"
        dump_json(doc, path, indent=indent)
        assert path.read_bytes() == self._json_dump_text(doc, indent).encode()

    @pytest.mark.parametrize("doc", [
        encode({"x": [math.nan, math.inf, -math.inf, 1.5], "y": np.array([np.nan, 2.0])}),
        encode({3.0: [1.0], 4.5: {0.25: -0.0}, 12.0: 1e-300}),
        {4.5: 1, 3.0: 2, -1.0: 3, 1e20: 4},
        {"label": "München – α/β ✓", "Ω": ["naïve", "日本"]},
        {"b": True, "a": None, "c": [0, -7, 2**70], "d": 0.1 + 0.2},
    ], ids=["non-finite", "float-keys", "raw-float-keys", "non-ascii", "scalars"])
    @pytest.mark.parametrize("indent", [None, 1])
    def test_values_keep_json_dump_bytes(self, tmp_path, doc, indent):
        path = tmp_path / "doc.json"
        dump_json(doc, path, indent=indent)
        text = path.read_bytes()
        assert text == self._json_dump_text(doc, indent).encode()
        assert text.isascii()  # ensure_ascii escapes every non-ASCII character

    def test_writer_creates_the_directory_and_keeps_the_bytes(self, tmp_path):
        doc = {"b": [1.5, "nan"], "a": {"3": -1.0}}
        path = tmp_path / "new" / "deeper" / "doc.json"
        dump_json(doc, path)
        assert path.read_text() == json.dumps(doc, sort_keys=True) + "\n"
        dump_json(doc, path, indent=1)
        assert path.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"
