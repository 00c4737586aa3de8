"""Per-posterior-draw treatment-effect estimators.

Every estimator imputes each patient's counterfactual composite outcome from
one survival draw and one longitudinal draw, keeping the uncertainty about
the patient's principal stratum as probability mass rather than a hard
classification:

* survivors at the horizon carry a finite difference with mass equal to the
  counterfactual survival probability and an infinite difference with the
  remaining mass;
* observed deaths carry two infinite atoms split by the probability that
  the counterfactual death would have come later or earlier.

The average-style estimators integrate the finite part analytically (the
residual enters the pairwise-comparison probability through the Normal
cdf). The median estimator pools every patient's atoms and takes the mass
median, placing finite atoms at the counterfactual predictive mean.

Two reference estimators are included for contrast only: the naive
observed-survivor contrast (biased by selection) and the across-arm rank
statistic computed on observed composites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .longitudinal import LongitudinalPosterior, counterfactual_mean
from .science import ObservedDataset
from .survival import SurvivalPosterior

ESTIMANDS = ("sace", "pc", "sim", "rmst")
_MASS_TOL = 1e-12
# SIM takes its draws in blocks of about this many atoms. Whole-batch
# (draws, atoms) arrays of a few MB left that much free but unreturned heap
# behind each call, raising the peak memory of the next fit.
_SIM_BLOCK_ATOMS = 1 << 16


def naive_effect(data: ObservedDataset, t: float) -> float | None:
    """Observed-survivor arm contrast (biased reference; conditions on
    post-randomization survival)."""
    cols = data.columns
    at = cols.at(t)
    treated = at.y[at.measured & (cols.w == 1)]
    control = at.y[at.measured & (cols.w == 0)]
    if not len(treated) or not len(control):
        return None
    return float(np.mean(treated) - np.mean(control))


def wins_and_half_ties(mine: np.ndarray, theirs: np.ndarray) -> np.ndarray:
    """For each mine[i], the count of theirs[j] < mine[i] plus half the count
    of theirs[j] == mine[i], by sorting ``theirs`` once."""
    theirs = np.sort(theirs)
    below = np.searchsorted(theirs, mine, side="left")
    tied = np.searchsorted(theirs, mine, side="right") - below
    return below + 0.5 * tied


def wmw(data: ObservedDataset, t: float) -> float | None:
    """Across-arm win fraction of observed composites with half credit for
    ties (rank-statistic reference; differs from the pairwise estimand).

    A survivor beats a death, two deaths compare by death time and two
    survivors by outcome; the pairs are counted by sorting, not
    enumerated. The count of wins plus half the ties is exact in floating
    point, so the fraction equals the pairwise sum's."""
    cols = data.columns
    at = cols.at(t)
    unmeasured = np.flatnonzero(at.alive & np.isnan(at.y))
    if len(unmeasured):
        pid = data.patients[unmeasured[0]].id
        raise KeyError(f"patient {pid} has no measurement at month {t}")
    treated, control = cols.w == 1, cols.w == 0
    n1, n0 = int(treated.sum()), int(control.sum())
    if not n1 or not n0:
        return None
    alive, dead = at.alive, ~at.alive
    y_score = wins_and_half_ties(at.y[treated & alive], at.y[control & alive]).sum()
    t_score = wins_and_half_ties(cols.t_obs[treated & dead], cols.t_obs[control & dead]).sum()
    survivor_over_death = int((treated & alive).sum()) * int((control & dead).sum())
    return (float(y_score) + float(t_score) + survivor_over_death) / (n1 * n0)


# --- batched evaluation over paired posterior draws --------------------------


@dataclass(frozen=True)
class EstimandSummary:
    """Posterior summary over finite draws: median and centered 95% interval."""

    median: float | None
    lo95: float | None
    hi95: float | None
    frac_undefined: float
    n_draws: int


def summarize(draws) -> EstimandSummary:
    """Median and centered 2.5/97.5 percentiles over the finite draws.

    Non-finite draws (infinite medians, undefined ratios) are excluded from
    the quantiles and reported through ``frac_undefined``.
    """
    arr = np.asarray(draws, dtype=float)
    if arr.size == 0:
        raise ValueError("no draws to summarize")
    finite = arr[np.isfinite(arr)]
    frac_undef = 1.0 - len(finite) / len(arr)
    if len(finite) == 0:
        return EstimandSummary(None, None, None, 1.0, len(arr))
    lo, med, hi = np.percentile(finite, [2.5, 50.0, 97.5])
    return EstimandSummary(float(med), float(lo), float(hi), frac_undef, len(arr))


@dataclass
class EstimandDraws:
    """Aligned per-draw values of the four estimators at one visit time."""

    time: float
    sace: np.ndarray
    pc: np.ndarray
    sim: np.ndarray
    rmst: np.ndarray
    naive: float | None
    wmw: float | None

    def values(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def summaries(self) -> dict[str, EstimandSummary]:
        """``summarize`` of each estimand."""
        return summaries_of([self])[0]


def summaries_of(results) -> list[dict[str, EstimandSummary]]:
    """``EstimandDraws.summaries`` of each of ``results``, which all hold
    one number of draws. The estimands whose draws are all finite share one
    percentile call, which takes each row's order statistics and
    interpolates them as a one-row call does."""
    if not results:
        return []
    rows = np.stack([np.asarray(r.values(name), dtype=float) for r in results for name in ESTIMANDS])
    whole = np.isfinite(rows).all(axis=1) & (rows.shape[1] > 0)
    batched = {}
    if whole.any():
        lo, med, hi = np.percentile(rows[whole], [2.5, 50.0, 97.5], axis=1)
        batched = {
            i: EstimandSummary(float(m), float(l), float(h), 0.0, rows.shape[1])
            for i, l, m, h in zip(np.flatnonzero(whole), lo, med, hi)
        }
    flat = [batched[i] if i in batched else summarize(row) for i, row in enumerate(rows)]
    n = len(ESTIMANDS)
    return [dict(zip(ESTIMANDS, flat[i:i + n])) for i in range(0, len(flat), n)]


def rmst_estimand_draws(
    spost: SurvivalPosterior, data: ObservedDataset, t: float, k: int
) -> np.ndarray:
    """Restricted-mean contrast draws; needs only the survival posterior.

    Each patient's observed time restricted to t minus the integral of the
    counterfactual survival curve (``SurvivalPosterior.rmst_matrix``), with
    the assignment sign, averaged over patients."""
    cols = data.columns
    integral = spost.rmst_matrix(data, t, spost.subsample_indices(k))
    sign = 2 * cols.w - 1
    return (sign[None, :] * (np.minimum(cols.t_obs, t)[None, :] - integral)).mean(axis=1)


def _sim_batch(values: np.ndarray, masses: np.ndarray, half: float) -> np.ndarray:
    """Mass median of every row of ``values`` / ``masses`` (draws, atoms):
    the value where the cumulative mass of the sorted atoms first reaches
    ``half``. When that boundary falls exactly between two atoms the two are
    averaged; averaging with an infinity yields that infinity, and oppositely
    infinite neighbours yield NaN.

    Zero-mass atoms may stay in the rows: adding 0.0 leaves each cumulative
    sum as it was, and such an atom is never the one picked nor the
    neighbour at a boundary."""
    order = np.argsort(values, axis=1, kind="stable")
    m = np.take_along_axis(masses, order, axis=1)
    cum = np.cumsum(m, axis=1)
    rows = np.arange(len(m))
    # the first atom reaching half; there is one, as the masses add up to 2 * half
    idx = (cum < half - _MASS_TOL).sum(axis=1)
    later = (m > 0) & (np.arange(m.shape[1])[None, :] > idx[:, None])
    at_boundary = np.abs(cum[rows, idx] - half) <= _MASS_TOL  # half the mass is later
    lo = values[rows, order[rows, idx]]
    hi = values[rows, order[rows, np.argmax(later, axis=1)]]
    with np.errstate(invalid="ignore"):
        mid = np.where(np.isinf(lo), lo, np.where(np.isinf(hi), hi, 0.5 * (lo + hi)))
    mid[np.isinf(lo) & np.isinf(hi) & (lo != hi)] = np.nan
    return np.where(at_boundary, mid, lo)


def estimand_draws(
    spost: SurvivalPosterior,
    lpost: LongitudinalPosterior,
    data: ObservedDataset,
    t: float,
    k: int,
) -> EstimandDraws:
    """Evaluate all estimators over k paired posterior draws.

    Draw k of the survival posterior is paired with draw k of the
    longitudinal posterior (both subsampled evenly from their pools), so
    the result depends on nothing but the posteriors, the data, t and k.
    """
    n = len(data)
    cols = data.columns
    w, x = cols.w, cols.x
    sign = 2 * w - 1
    at = cols.at(t)
    alive, y = at.alive, at.y
    if np.any(alive & np.isnan(y)):
        bad = [p.id for p, a in zip(data.patients, alive) if a and t not in p.y_obs]
        raise ValueError(f"patients alive at t={t} without a measurement: {bad}")

    s_idx = spost.subsample_indices(k)
    l_idx = lpost.subsample_indices(k)
    s_mis = spost.s_mis_matrix(data, t, s_idx)  # (K, n)
    sigma = lpost.sigma[l_idx]
    mu_mis = counterfactual_mean(lpost.beta0[l_idx], lpost.beta1[l_idx], x, w)

    surv = alive
    dead = ~alive

    # SACE
    diff = sign[None, :] * (y[None, :] - mu_mis)
    s_surv = s_mis[:, surv]
    den = s_surv.sum(axis=1)
    num = (s_surv * diff[:, surv]).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        sace = np.where(den > 0, num / den, np.nan)

    # PC
    z = diff / sigma[:, None]
    p_fin = ndtr(z)
    pc_surv = s_mis * p_fin + (1.0 - s_mis) * (w == 1)[None, :]
    pc_dead = np.where((w == 1)[None, :], 1.0 - s_mis, s_mis)
    pc = (np.where(surv[None, :], pc_surv, pc_dead)).sum(axis=1) / n

    # RMST
    rmst = rmst_estimand_draws(spost, data, t, k)

    # SIM: each patient's atoms as the module docstring lists them, finite atoms at
    # the predictive mean; the infinite atoms sit where they do for every draw
    v_inf = np.concatenate([np.where(sign[surv] > 0, np.inf, -np.inf),
                            np.where(sign[dead] > 0, -np.inf, np.inf),
                            np.where(sign[dead] > 0, np.inf, -np.inf)])
    m_dead = s_mis[:, dead]
    sim = np.empty(k)
    step = max(1, _SIM_BLOCK_ATOMS // (2 * n))
    for start in range(0, k, step):
        b = slice(start, start + step)
        v_fin = sign[surv] * (y[surv] - mu_mis[b][:, surv])
        sim[b] = _sim_batch(
            np.concatenate([v_fin, np.broadcast_to(v_inf, (len(v_fin), len(v_inf)))], axis=1),
            np.concatenate([s_surv[b], 1.0 - s_surv[b], m_dead[b], 1.0 - m_dead[b]], axis=1),
            n / 2.0,
        )

    return EstimandDraws(
        time=t,
        sace=sace,
        pc=pc,
        sim=sim,
        rmst=rmst,
        naive=naive_effect(data, t),
        wmw=wmw(data, t),
    )
