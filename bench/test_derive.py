"""Tests of the benchmark's own derivations.

Run with ``python3 -m pytest bench`` from the repository root.
"""

import math
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import derive  # noqa: E402
from derive import Span  # noqa: E402


def _span(id, name, start, end, parent=None, op=None, **attrs):
    return Span(id=id, name=name, start=start, end=end, parent=parent, op=op, attrs=attrs)


def _tree():
    # cell [0, 10]: survival fit [1, 5] -> run_chains [1, 4.5] (3 s in the
    # model callables) -> ess [4, 4.5]; estimand draws [6, 9] -> rmst [6, 7]
    return [
        _span(0, "study.run_cell", 0.0, 10.0, op=0),
        _span(1, "survival.fit_survival", 1.0, 5.0, parent=0, op=0),
        _span(2, "mcmc.run_chains", 1.0, 4.5, parent=1, op=0, model_s=3.0),
        _span(3, "mcmc.ess", 4.0, 4.5, parent=2, op=0),
        _span(4, "estimators.estimand_draws", 6.0, 9.0, parent=0, op=0),
        _span(5, "estimators.rmst_estimand_draws", 6.0, 7.0, parent=4, op=0),
    ]


def test_self_time_subtracts_children_and_model_time():
    own = derive.self_times(_tree())
    assert own[0] == pytest.approx(10.0 - 4.0 - 3.0)
    assert own[1] == pytest.approx(4.0 - 3.5)
    assert own[2] == pytest.approx(3.5 - 0.5 - 3.0)
    assert own[3] == pytest.approx(0.5)
    assert own[4] == pytest.approx(2.0)
    assert own[5] == pytest.approx(1.0)


def test_layer_self_times_charge_model_time_to_the_fitting_layer():
    spans = _tree()
    layers = derive.layer_self_times(spans)
    assert layers["survival"] == pytest.approx(0.5 + 3.0)
    assert layers["mcmc"] == pytest.approx(0.0 + 0.5)
    assert layers["estimators"] == pytest.approx(3.0)
    assert layers["study"] == pytest.approx(3.0)
    assert sum(layers.values()) == pytest.approx(spans[0].duration)
    only_draws = derive.layer_self_times(spans, keep=lambda s: s.layer == "estimators")
    assert only_draws == {"estimators": pytest.approx(3.0)}


def test_attributed_frac_is_child_covered_share_of_cells():
    spans = _tree()
    assert derive.attributed_frac([spans[0]], spans) == pytest.approx(0.7)


def test_median_is_the_middle_value_and_refuses_no_values():
    vals = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert derive.median(vals) == statistics.median(vals) == 3.75
    assert derive.median([2.0, 7.0, 1.0]) == 2.0
    with pytest.raises(ValueError):
        derive.median([])


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert derive.tail_percentile(range(10)) is None
    assert derive.tail_percentile(range(39)) is None
    p, value = derive.tail_percentile(range(40))
    assert p == 75
    p, value = derive.tail_percentile(range(1, 101))
    assert p == 90
    assert value == pytest.approx(90.1)
    assert derive.tail_percentile(range(1000))[0] == 99


def test_final_attempts_keep_the_last_try_per_fit():
    fits = [
        _span(0, "survival.fit_survival", 0, 1, op=7, fit_key="survival"),
        _span(1, "longitudinal.fit_longitudinal", 1, 2, op=7, fit_key="longitudinal@3"),
        _span(2, "longitudinal.fit_longitudinal", 2, 4, op=7, fit_key="longitudinal@3"),
        _span(3, "longitudinal.fit_longitudinal", 4, 5, op=8, fit_key="longitudinal@3"),
        _span(4, "longitudinal.fit_longitudinal", 5, 6, op=8),  # raised: no key
    ]
    finals, attempts = derive.final_attempts(fits)
    assert sorted(s.id for s in finals) == [0, 2, 3]
    assert attempts == 5
    assert derive.retry_frac(attempts, len(finals)) == pytest.approx(2 / 3)
    assert derive.retry_frac(0, 0) == 0.0


def test_fail_frac_counts_failed_over_attempted():
    assert derive.fail_frac(10, 1) == 0.1
    assert derive.fail_frac(4, 0) == 0.0
    with pytest.raises(ValueError):
        derive.fail_frac(0, 0)


def test_min_ess_per_cpu_s_is_the_median_over_cells_of_mean_fit_ess_over_cpu():
    cells = [(10.0, [800.0, 400.0, 600.0]), (20.0, [500.0]), (5.0, []), (8.0, [400.0, 480.0])]
    # rates 60, 25, 55; the cell that kept no fit is skipped
    assert derive.min_ess_per_cpu_s(cells) == pytest.approx(55.0)
    assert math.isnan(derive.min_ess_per_cpu_s([(1.0, [])]))
