"""Study-level performance and reconstruction metrics.

Bias and coverage compare posterior summaries against exact finite-sample
truths. Reconstruction quality of the fitted models is measured by the mean
absolute error of imputed counterfactual outcomes (simulation only, where
the truth is known) and by inverse-probability-of-censoring weighted
survival metrics: the integrated Brier score for calibration and the
cumulative/dynamic AUC for discrimination. Censoring weights come from the
Kaplan-Meier estimate of the censoring distribution, evaluated
left-continuously.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .estimators import EstimandSummary, wins_and_half_ties
from .science import ObservedDataset, ScienceTable


@dataclass(frozen=True)
class BiasCoverage:
    """Bias/coverage fragment for one estimand at one time, or the reason
    it was omitted."""

    defined: bool
    truth: float | None = None
    bias: float | None = None
    covered: bool | None = None
    reason: str | None = None


def bias_and_coverage(summary: EstimandSummary, truth: float | None) -> BiasCoverage:
    """Bias of the posterior median and 95%-interval coverage of the truth.

    Undefined truths (empty stratum, infinite or ill-defined medians) and
    all-undefined estimates produce an omitted record carrying the reason.
    """
    if truth is None:
        return BiasCoverage(defined=False, reason="truth undefined")
    if math.isinf(truth):
        return BiasCoverage(defined=False, truth=truth, reason="truth infinite")
    if summary.median is None:
        return BiasCoverage(defined=False, truth=truth, reason="estimate undefined")
    covered = bool(summary.lo95 <= truth <= summary.hi95)
    return BiasCoverage(
        defined=True, truth=truth, bias=summary.median - truth, covered=covered
    )


def mae_reconstruction(science: ScienceTable, imputed_means, t: float) -> float | None:
    """Mean absolute error of imputed counterfactual outcomes at horizon t.

    ``imputed_means`` aligns with ``science.patients``. Only patients whose
    counterfactual outcome exists (alive under the unassigned arm at t)
    contribute; returns None when there are none.
    """
    imputed = np.asarray(imputed_means, dtype=float)
    if len(imputed) != len(science):
        raise ValueError("imputed means must align with the science table")
    v = science.at(t)
    treated = v.w == 1
    exists = np.where(treated, v.t0, v.t1) > t
    if not exists.any():
        return None
    y_mis = np.where(treated, v.y0, v.y1)
    return float(np.mean(np.abs(y_mis[exists] - imputed[exists])))


# --- IPCW survival metrics ----------------------------------------------------


def km_survival(times: np.ndarray, events: np.ndarray):
    """Kaplan-Meier estimator; returns a left-continuous evaluator S(t-).

    ``events`` marks the endpoint the curve describes (pass the censoring
    indicator to estimate the censoring distribution).
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    uniq, deaths = np.unique(times[events == 1], return_counts=True)
    at_risk = len(times) - np.searchsorted(np.sort(times), uniq, side="left")
    # cumprod multiplies in sequence, as a running product over event times does
    padded = np.concatenate([[1.0], np.cumprod(1.0 - deaths / at_risk)])

    def evaluate(t, left: bool = True):
        t = np.asarray(t, dtype=float)
        out = padded[np.searchsorted(uniq, t, side="left" if left else "right")]
        return out if out.ndim else float(out)

    return evaluate


def _censoring_weights(data: ObservedDataset):
    times, events = data.columns.t_obs, data.columns.d_obs
    g = km_survival(times, 1 - events)
    return times, events, g


def brier_scores(surv_pred: np.ndarray, data: ObservedDataset, grid) -> np.ndarray:
    """IPCW Brier score at each grid time.

    ``surv_pred`` holds predicted survival probabilities, shape
    (patients, len(grid)).
    """
    grid = np.asarray(grid, dtype=float)
    surv_pred = np.asarray(surv_pred, dtype=float)
    times, events, g = _censoring_weights(data)
    n = len(times)
    scores = np.empty(len(grid))
    g_at_event = g(times, left=True)
    for k, tau in enumerate(grid):
        died = (times <= tau) & (events == 1)
        alive = times > tau
        g_tau = g(np.array([tau]), left=False)[0]
        beyond_support = tau > times.max()
        if beyond_support or np.any(died & (g_at_event <= 0)) or (np.any(alive) and g_tau <= 0):
            scores[k] = np.nan
            continue
        term_died = np.where(died, surv_pred[:, k] ** 2 / np.where(g_at_event > 0, g_at_event, 1.0), 0.0)
        term_alive = np.where(alive, (1.0 - surv_pred[:, k]) ** 2 / (g_tau if g_tau > 0 else 1.0), 0.0)
        scores[k] = (term_died.sum() + term_alive.sum()) / n
    return scores


def ibs(surv_pred: np.ndarray, data: ObservedDataset, grid) -> float:
    """Integrated Brier score over the grid (trapezoid rule, normalized by
    the grid span). Grid times where the censoring weight degenerates are
    truncated with a warning."""
    grid = np.asarray(grid, dtype=float)
    scores = brier_scores(surv_pred, data, grid)
    valid = ~np.isnan(scores)
    if not np.all(valid):
        warnings.warn("censoring weights degenerate at late grid times; grid truncated")
        keep = np.where(valid)[0]
        grid, scores = grid[keep], scores[keep]
    if len(grid) == 0:
        raise ValueError("no evaluable grid times for the Brier score")
    if len(grid) == 1:
        return float(scores[0])
    return float(np.trapezoid(scores, grid) / (grid[-1] - grid[0]))


def cdauc(risk, data: ObservedDataset, times) -> float:
    """Cumulative/dynamic AUC integrated over evaluation times.

    At each time, cases are patients with an observed event at or before it
    and controls are patients event-free past it; case weights are the
    inverse censoring probabilities, and each case scores the controls of
    lower risk plus half those of tied risk (``wins_and_half_ties``). Times
    without comparable pairs are skipped with a warning. The time integral
    is weighted by the Kaplan-Meier event distribution.
    """
    times = np.asarray(times, dtype=float)
    risk = np.asarray(risk, dtype=float)
    if risk.ndim == 1:
        risk = np.repeat(risk[:, None], len(times), axis=1)
    obs_times, events, g = _censoring_weights(data)
    g_at_event = g(obs_times, left=True)
    case_w = np.where(g_at_event > 0, 1.0 / np.where(g_at_event > 0, g_at_event, 1.0), 0.0)
    event_km = km_survival(obs_times, events)
    f_prev = 0.0
    aucs, weights = [], []
    for k, tau in enumerate(times):
        f_tau = 1.0 - event_km(np.array([tau]), left=False)[0]
        w_time = f_tau - f_prev
        f_prev = f_tau
        case = (obs_times <= tau) & (events == 1)
        control = obs_times > tau
        n_ctrl = int(control.sum())
        w_case = case_w[case]
        if n_ctrl == 0 or w_case.sum() <= 0:
            warnings.warn(f"no comparable case/control pairs at time {tau}; skipped")
            continue
        total = float(np.sum(w_case * wins_and_half_ties(risk[case, k], risk[control, k])))
        aucs.append(total / (float(w_case.sum()) * n_ctrl))
        weights.append(w_time)
    if not aucs:
        raise ValueError("no evaluable times for the cumulative/dynamic AUC")
    weights = np.asarray(weights)
    if weights.sum() <= 0:
        return float(np.mean(aucs))
    return float(np.average(aucs, weights=weights))
