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
median, placing finite atoms at the counterfactual predictive mean; it sorts
only the finite atoms, with numpy's default sort, and passes the infinite
atoms as their masses at -inf and at +inf alone. Only the survivors have a
counterfactual mean and a finite difference: the deaths' atoms are all
infinite, and no estimand reads a difference of theirs.

``estimand_draws`` walks the paired draws in the blocks of
``survival.draw_blocks`` (256 draws) and evaluates SACE, PC and SIM on a
block before taking the next, so the arrays it holds have 256 rows and a
column per patient however many draws are asked for. The restricted mean
needs no longitudinal draw: ``rmst_estimand_draws`` evaluates every visit
in one pass over the same blocks. The blocks are those the survival kernels
split their draws into, so every draw keeps the bits of one evaluation over
all of them.

Two reference estimators are included for contrast only: the naive
observed-survivor contrast (biased by selection) and the across-arm rank
statistic computed on observed composites.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .longitudinal import LongitudinalPosterior, counterfactual_mean
from .science import ObservedDataset, mass_median
from .survival import SurvivalPosterior, draw_blocks

ESTIMANDS = ("sace", "pc", "sim", "rmst")
# SIM takes each block's draws a few at a time, about this many atoms (two
# a patient) per sub-block: (draws, atoms) arrays of a few MB left that much
# free but unreturned heap behind each call, raising the peak memory of the
# next fit. The step counts both atoms of every patient; a sub-block's
# arrays hold only the survivors' finite atoms and the masses at -inf and
# +inf, each a fraction of those 2n columns. Rows are independent, so no
# bit depends on the step.
_SIM_BLOCK_ATOMS = 1 << 16


def naive_effect(data: ObservedDataset, t: float) -> float | None:
    """Observed-survivor arm contrast (biased reference; conditions on
    post-randomization survival)."""
    at = data.at(t)
    treated = at.y[at.measured & (data.w == 1)]
    control = at.y[at.measured & (data.w == 0)]
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
    data.check_measured(t)
    at = data.at(t)
    treated, control = data.w == 1, data.w == 0
    n1, n0 = int(np.count_nonzero(treated)), int(np.count_nonzero(control))
    if not n1 or not n0:
        return None
    alive, dead = at.alive, ~at.alive
    treated_alive, control_dead = treated & alive, control & dead
    y_score = wins_and_half_ties(at.y[treated_alive], at.y[control & alive]).sum()
    t_score = wins_and_half_ties(data.t_obs[treated & dead], data.t_obs[control_dead]).sum()
    survivor_over_death = int(np.count_nonzero(treated_alive)) * int(np.count_nonzero(control_dead))
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
    """Median and centered 2.5/97.5 percentiles over the finite draws
    (``summaries_of`` of one row).

    Non-finite draws (infinite medians, undefined ratios) are excluded from
    the quantiles and reported through ``frac_undefined``.
    """
    return summaries_of([draws])[0]


@dataclass
class EstimandDraws:
    """Aligned per-draw values of the estimators that need a longitudinal
    posterior, at one visit time (RMST: ``rmst_estimand_draws``)."""

    sace: np.ndarray
    pc: np.ndarray
    sim: np.ndarray

    def by_name(self) -> dict[str, np.ndarray]:
        """Each estimand's draws, in ``ESTIMANDS`` order."""
        return {"sace": self.sace, "pc": self.pc, "sim": self.sim}


# the median and the centered 95% interval, as fractions
_QUANTILES = np.true_divide([2.5, 50.0, 97.5], 100)


@functools.lru_cache(maxsize=256)
def _linear_order_statistics(n: int):
    """What the quantiles ``_QUANTILES`` of n values take: the order
    statistics to partition at, the lower and upper neighbours of each
    quantile's virtual index (n - 1) * q, and its weight, the index's
    fraction past the lower. With one value both neighbours are that value.
    Cached by n."""
    virtual = (n - 1) * _QUANTILES
    lower = np.floor(virtual).astype(np.intp)
    upper = lower + 1
    last = virtual >= n - 1
    lower[last] = upper[last] = -1
    kth = np.unique(np.concatenate(([0, -1], lower, upper)))
    gamma = virtual - lower
    for a in (kth, lower, upper, gamma):
        a.flags.writeable = False  # shared by every call with this n
    return kth, lower, upper, gamma


def summaries_of(rows) -> list[EstimandSummary]:
    """Median and centered 95% interval over the finite draws of each of
    ``rows``, arrays that all hold one number of draws: the package's one
    quantile path, ``summarize`` taking one row. Each quantile interpolates
    linearly between the order statistics a and b around its virtual index,
    with weight g: a + (b - a) * g below g = 0.5, else b - (b - a) * (1 - g),
    which are the bits of ``np.percentile``'s default method. Rows with the
    same number of finite draws are partitioned together, which spares a
    study cell ``np.percentile``'s argument handling, about 70 us a call."""
    if not rows:
        return []
    rows = np.stack([np.asarray(row, dtype=float) for row in rows])
    if rows.shape[1] == 0:
        raise ValueError("no draws to summarize")
    finite = np.isfinite(rows)
    counts = np.count_nonzero(finite, axis=1)
    quantiles = np.empty((len(rows), len(_QUANTILES)))
    for n in sorted(set(counts.tolist()) - {0}):
        group = np.flatnonzero(counts == n)
        # each row's finite draws, in order
        values = (rows[group] if n == rows.shape[1]
                  else rows[group][finite[group]].reshape(len(group), n))
        kth, lower, upper, gamma = _linear_order_statistics(n)
        values.partition(kth, axis=1)
        a, b = values[:, lower], values[:, upper]
        diff = b - a
        lerp = a + diff * gamma
        np.subtract(b, diff * (1 - gamma), out=lerp, where=gamma >= 0.5)
        quantiles[group] = lerp
    return [
        EstimandSummary(float(med), float(lo), float(hi), 1.0 - n / rows.shape[1], rows.shape[1])
        if n else EstimandSummary(None, None, None, 1.0, rows.shape[1])
        for n, (lo, med, hi) in zip(counts.tolist(), quantiles.tolist())
    ]


def rmst_estimand_draws(spost: SurvivalPosterior, data: ObservedDataset, t, k: int) -> np.ndarray:
    """Restricted-mean contrast draws; needs only the survival posterior.

    Each patient's observed time restricted to t minus the integral of the
    counterfactual survival curve (``SurvivalPosterior.rmst_matrix``), with
    the assignment sign, averaged over patients: shape (k,). A sequence of
    times ``t`` adds a leading axis of its length, and all of them are
    evaluated in one pass over the draws. Each block of
    ``survival.draw_blocks`` is reduced to its patient means in turn, in the
    integral's own buffer."""
    s_idx = spost.subsample_indices(k)
    sign = 2 * data.w - 1
    times = np.atleast_1d(np.asarray(t, dtype=float))
    restricted = np.minimum(data.t_obs, times[:, None])
    rmst = np.empty((len(times), len(s_idx)))
    for b in draw_blocks(len(s_idx)):
        integral = spost.rmst_matrix(data, times, s_idx[b])  # (times, block, patients)
        np.subtract(restricted[:, None, :], integral, out=integral)
        integral *= sign  # a sign flip, exact
        rmst[:, b] = integral.mean(axis=2)
        del integral  # freed before the next block's is built
    return rmst if np.ndim(t) else rmst[0]


def _sace(s_surv: np.ndarray, d_surv: np.ndarray) -> np.ndarray:
    """SACE of each row: the survivors' signed differences ``d_surv``
    averaged with their counterfactual survival ``s_surv`` as weights, NaN
    where all weights are zero."""
    den = s_surv.sum(axis=1)
    num = (s_surv * d_surv).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, num / den, np.nan)


def _pc(s_surv, s_dead, diff, sigma, treated, surv, dead) -> np.ndarray:
    """PC of each row: the probability, averaged over patients, that the
    patient's composite under treatment beats the one under control. The
    patients in columns ``surv`` are alive: one whose counterfactual
    survives too (``s_surv``) compares by the Normal residual of its
    difference in ``diff``, one whose counterfactual died wins if treated.
    Those in columns ``dead`` died: one wins if treated and the
    counterfactual (``s_dead``) died first, or if control and the
    counterfactual outlived it. Each group's terms are written into its
    columns of one array, so each row sums its patients' terms in patient
    order."""
    pc = np.empty((len(s_surv), len(treated)))
    pc[:, dead] = np.where(treated[dead], 1.0 - s_dead, s_dead)
    p_fin = np.divide(diff, sigma[:, None])
    ndtr(p_fin, out=p_fin)
    p_fin *= s_surv
    p_fin += (1.0 - s_surv) * treated[surv]
    pc[:, surv] = p_fin
    return pc.sum(axis=1) / len(treated)


def _infinite_columns(treated_surv, treated_dead):
    """The atoms at -inf and at +inf, as ``_sim`` takes them: for each side
    a triple of column sets, of ``1 - s_surv`` (the survivors' infinite
    atoms), ``s_dead`` and ``1 - s_dead`` (the deaths' two atoms). A treated
    survivor's sits at +inf and a control's at -inf; a treated death's
    ``s_dead`` atom (the counterfactual outlived it) sits at -inf and its
    ``1 - s_dead`` atom at +inf, a control death's the other way round."""
    ctrl_surv, trt_surv = np.flatnonzero(~treated_surv), np.flatnonzero(treated_surv)
    ctrl_dead, trt_dead = np.flatnonzero(~treated_dead), np.flatnonzero(treated_dead)
    return (ctrl_surv, trt_dead, ctrl_dead), (trt_surv, ctrl_dead, trt_dead)


def _infinite_masses(s_surv, s_dead, cols) -> np.ndarray:
    """The masses of one side's infinite atoms, in the order of ``cols``'
    three column sets (``_infinite_columns``)."""
    surv, dead, dead_complement = cols
    return np.concatenate([1.0 - s_surv[:, surv], s_dead[:, dead],
                           1.0 - s_dead[:, dead_complement]], axis=1)


def _sim(d_surv, s_surv, s_dead, neg, pos, half) -> np.ndarray:
    """SIM of each row: the mass median of every patient's atoms. The
    survivors' finite atoms sit at ``d_surv`` with masses ``s_surv``; the
    masses of the infinite atoms are those of ``1 - s_surv``, ``s_dead`` and
    ``1 - s_dead`` in the column sets ``neg`` (at -inf) and ``pos`` (at
    +inf) of ``_infinite_columns``. They sit where they do for every draw,
    so only the finite atoms are sorted, by numpy's default sort, and
    ``mass_median`` takes the infinite atoms' masses alone. Tied finite
    atoms may come in any order. They share their value, read as
    ``d_surv + 0.0`` so that a -0.0 is a +0.0 and SIM is never -0.0; only
    the last bits of the cumulative masses within their run depend on the
    order."""
    d_surv = d_surv + 0.0
    order = np.argsort(d_surv, axis=1)
    # as flat positions, which np.take gathers faster than take_along_axis
    order += np.arange(len(order))[:, None] * order.shape[1]
    return mass_median(np.take(d_surv, order), np.take(s_surv, order), half,
                       _infinite_masses(s_surv, s_dead, neg),
                       _infinite_masses(s_surv, s_dead, pos))


def estimand_draws(
    spost: SurvivalPosterior,
    lpost: LongitudinalPosterior,
    data: ObservedDataset,
    t: float,
    k: int,
) -> EstimandDraws:
    """Evaluate SACE, PC and SIM over k paired posterior draws.

    Draw k of the survival posterior is paired with draw k of the
    longitudinal posterior (both subsampled evenly from their pools), so
    the result depends on nothing but the posteriors, the data, t and k.
    The draws are taken a block of ``survival.draw_blocks`` at a time, so
    no array of k rows and a column per patient is built. Only the
    patients alive at t have a counterfactual mean and a difference: no
    estimand reads the others'.
    """
    n = len(data)
    data.check_measured(t)
    at = data.at(t)
    treated = data.w == 1
    # the survivors' and the deaths' columns, as indices (which numpy gathers
    # and writes a little faster than by mask), the survivors' covariates and
    # the infinite atoms' column sets, once per visit
    surv, dead = np.flatnonzero(at.alive), np.flatnonzero(~at.alive)
    x_surv, w_surv = data.x[surv], data.w[surv]
    y_surv, sign_surv = at.y[surv], 2 * w_surv - 1
    neg, pos = _infinite_columns(treated[surv], treated[dead])

    s_idx = spost.subsample_indices(k)
    l_idx = lpost.subsample_indices(k)
    sace, pc, sim = (np.empty(len(s_idx)) for _ in range(3))
    step = max(1, _SIM_BLOCK_ATOMS // (2 * n))  # draws per SIM sub-block
    for b in draw_blocks(len(s_idx)):
        s_mis = spost.s_mis_matrix(data, t, s_idx[b])  # (block, n)
        s_surv, s_dead = s_mis[:, surv], s_mis[:, dead]
        del s_mis  # freed before the block's other arrays are built
        # the survivors' signed differences (block, survivors), in the means' buffer
        diff = counterfactual_mean(lpost.beta0[l_idx[b]], lpost.beta1[l_idx[b]], x_surv, w_surv)
        np.subtract(y_surv, diff, out=diff)
        diff *= sign_surv
        sace[b] = _sace(s_surv, diff)
        pc[b] = _pc(s_surv, s_dead, diff, lpost.sigma[l_idx[b]], treated, surv, dead)
        sim_b = sim[b]
        for r in range(0, len(s_surv), step):
            rows = slice(r, r + step)
            sim_b[rows] = _sim(diff[rows], s_surv[rows], s_dead[rows], neg, pos, n / 2.0)
    return EstimandDraws(sace=sace, pc=pc, sim=sim)
