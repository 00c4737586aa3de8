"""Strata classification, composite ordering/metric, and data-model checks.

The scalar strata and composite definitions live in ``tests/oracles.py``;
the package evaluates them as array code."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    CompositeOutcome,
    Stratum,
    classify_stratum,
    composite_metric,
    composite_order,
    observed_composite,
    potential_composite,
)
from tbd.codec import decode, encode
from tbd.science import (
    InvariantError,
    ObservedPatient,
    PatientTruth,
    observed_from_json,
    observed_to_json,
    science_from_json,
    science_to_json,
    ScienceTable,
    ObservedDataset,
)

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


class TestDataModel:
    def test_trajectory_after_death_rejected(self):
        with pytest.raises(InvariantError):
            _patient_truth(y0={3.0: -6.0, 6.0: -12.0})  # dies at 4 under control

    def test_nonpositive_death_time_rejected(self):
        with pytest.raises(InvariantError):
            _patient_truth(t0=0.0)

    def test_censored_patient_must_sit_at_follow_up(self):
        patient = ObservedPatient(id=0, x=(0.0,), w=0, t_obs=10.0, d_obs=0, y_obs={})
        with pytest.raises(InvariantError, match="censored patients must carry t_obs = follow_up"):
            ObservedDataset(patients=(patient,), follow_up=15.0)

    def test_alive_at_uses_strict_death_time(self):
        p = ObservedPatient(
            id=0, x=(0.0,), w=0, t_obs=9.0, d_obs=1, y_obs={3.0: -1.0}
        )
        assert p.alive_at(8.9)
        assert not p.alive_at(9.0)
        assert not p.alive_at(12.0)

    def test_observed_composite_branches(self):
        p = ObservedPatient(
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
        table = ScienceTable(
            patients=(_patient_truth(),), follow_up=15.0, visit_times=(3.0, 6.0)
        )
        assert science_from_json(science_to_json(table)) == table
        obs = ObservedDataset(
            patients=(
                ObservedPatient(
                    id=0, x=(0.5,), w=1, t_obs=8.0, d_obs=1,
                    y_obs={3.0: -3.0, 6.0: -6.0},
                ),
            ),
            follow_up=15.0,
            visit_times=(3.0, 6.0),
        )
        assert observed_from_json(observed_to_json(obs)) == obs

    def test_json_visit_keys_are_decimal_month_strings(self):
        obs = ObservedDataset(
            patients=(
                ObservedPatient(
                    id=0, x=(0.0,), w=0, t_obs=15.0, d_obs=0,
                    y_obs={3.0: -1.0, 4.5: -2.0},
                ),
            ),
            follow_up=15.0,
        )
        doc = observed_to_json(obs)
        assert set(doc["patients"][0]["y_obs"]) == {"3", "4.5"}

    def test_codec_float_keys_round_trip_as_decimal_month_strings(self):
        doc = encode({3.0: -1.0, 4.5: -2.0})
        assert doc == {"3": -1.0, "4.5": -2.0}
        assert decode(dict[float, float], json.loads(json.dumps(doc))) == {3.0: -1.0, 4.5: -2.0}
        assert decode(dict[str, float], doc) == doc

    def test_observed_file_text(self):
        # the whole format, pinned: the follow-up once at the top, none per patient
        obs = ObservedDataset(
            patients=(
                ObservedPatient(id=0, x=(0.5, -1.0), w=1, t_obs=8.0, d_obs=1,
                                y_obs={3.0: -3.0, 4.5: -4.25, 6.0: -6.0}),
                ObservedPatient(id=1, x=(0.0, 2.0), w=0, t_obs=15.0, d_obs=0,
                                y_obs={3.0: -1.5, 15.0: 2.0}),
            ),
            follow_up=15.0,
            visit_times=(3.0, 4.5, 6.0, 15.0),
        )
        text = (
            '{"follow_up_months": 15.0, "patients": ['
            '{"d_obs": 1, "id": 0, "t_obs": 8.0, "w": 1, "x": [0.5, -1.0], '
            '"y_obs": {"3": -3.0, "4.5": -4.25, "6": -6.0}}, '
            '{"d_obs": 0, "id": 1, "t_obs": 15.0, "w": 0, "x": [0.0, 2.0], '
            '"y_obs": {"15": 2.0, "3": -1.5}}], '
            '"visit_times": [3.0, 4.5, 6.0, 15.0]}'
        )
        assert json.dumps(observed_to_json(obs), sort_keys=True) == text
        assert observed_from_json(json.loads(text)) == obs

    def test_science_file_text(self):
        table = ScienceTable(
            patients=(_patient_truth(id=7, y1={3.0: -3.0, 4.5: -4.5, 6.0: -6.0}),),
            follow_up=15.0,
            visit_times=(3.0, 4.5, 6.0),
        )
        text = (
            '{"follow_up_months": 15.0, "patients": ['
            '{"id": 7, "t0": 4.0, "t1": 8.0, "w": 1, "x": [0.5], "y0": {"3": -6.0}, '
            '"y1": {"3": -3.0, "4.5": -4.5, "6": -6.0}}], '
            '"visit_times": [3.0, 4.5, 6.0]}'
        )
        assert json.dumps(science_to_json(table), sort_keys=True) == text
        assert science_from_json(json.loads(text)) == table


class TestObservedColumns:
    def _data(self):
        from tbd.simulate import get_scenario, observe, simulate_science_table

        params = get_scenario("mixed").with_updates(n=60)
        return observe(simulate_science_table(params, seed=5))

    @pytest.mark.parametrize("handmade", [False, True])
    def test_same_arrays_as_per_patient_comprehensions(self, handmade):
        # handmade: a death exactly at a visit, a censored patient, and a
        # survivor missing a measurement
        data = ObservedDataset(
            patients=(
                ObservedPatient(id=0, x=(0.5, 1.0), w=1, t_obs=6.0, d_obs=1,
                                y_obs={3.0: -3.0, 6.0: -6.0}),
                ObservedPatient(id=1, x=(-1.0, 0.0), w=0, t_obs=15.0, d_obs=0,
                                y_obs={3.0: -1.0, 15.0: -2.0}),
                ObservedPatient(id=2, x=(0.0, 2.0), w=0, t_obs=9.5, d_obs=1,
                                y_obs={9.0: 1.5}),
            ),
            follow_up=15.0,
            visit_times=(3.0, 6.0, 9.0, 15.0),
        ) if handmade else self._data()
        cols = data.columns
        ps = data.patients
        expected = {
            "w": np.array([p.w for p in ps]),
            "x": np.array([p.x for p in ps], dtype=float),
            "t_obs": np.array([p.t_obs for p in ps]),
            "d_obs": np.array([p.d_obs for p in ps]),
        }
        for t in data.visit_times:
            expected[f"alive@{t}"] = np.array([p.alive_at(t) for p in ps])
            expected[f"measured@{t}"] = np.array([p.alive_at(t) and t in p.y_obs for p in ps])
            expected[f"y@{t}"] = np.array([p.y_obs.get(t, np.nan) for p in ps])
        for key, want in expected.items():
            name, _, t = key.partition("@")
            got = getattr(cols.at(float(t)), name) if t else getattr(cols, name)
            assert got.dtype == want.dtype and got.shape == want.shape, key
            assert np.array_equal(got, want, equal_nan=True), key
            assert not got.flags.writeable, key

    def test_built_once_and_left_out_of_json_and_equality(self):
        data = self._data()
        doc = observed_to_json(data)
        assert data.columns is data.columns
        assert data.columns.at(6.0) is data.columns.at(6.0)
        assert observed_to_json(data) == doc
        again = observed_from_json(doc)
        assert again == data and "columns" not in again.__dict__
