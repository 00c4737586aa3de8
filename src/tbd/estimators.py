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
median, placing finite atoms at the counterfactual predictive mean; a Monte
Carlo variant that realizes one counterfactual value per draw is available
behind ``impute_noise``.

Two reference estimators are included for contrast only: the naive
observed-survivor contrast (biased by selection) and the across-arm rank
statistic computed on observed composites.

The per-patient ``*_draw`` functions state the definitions and serve as
oracles. ``estimand_draws`` evaluates every paired draw at once, as array
code that keeps the floating-point operations and their order of the
per-draw evaluation: one pooled median per draw for SIM, and each patient's
integral under both arms for RMST, of which one is kept. Its draws
therefore carry the same bits, and the tests compare them bit for bit
against those per-draw loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .longitudinal import LongParams, LongitudinalPosterior, predict_y_mis
from .science import ObservedDataset, ObservedPatient
from .survival import SurvivalParams, SurvivalPosterior, predict_s_mis, rmst_integral

_MASS_TOL = 1e-12
# SIM takes its draws in blocks of about this many atoms. Whole-batch
# (draws, atoms) arrays of a few MB left that much free but unreturned heap
# behind each call, raising the peak memory of the next fit.
_SIM_BLOCK_ATOMS = 1 << 16


@dataclass(frozen=True)
class CompositeDiffDistribution:
    """Distribution of one patient's composite difference (treated minus
    control direction), as (value, mass) atoms summing to one."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        total = sum(m for _, m in self.atoms)
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"atom masses sum to {total}, expected 1")
        if len(self.atoms) > 3:
            raise ValueError("at most 3 atoms (finite, +inf, -inf)")
        if any(m < 0 or m > 1 for _, m in self.atoms):
            raise ValueError("atom masses must lie in [0, 1]")


def composite_diff_dist(
    s_draw: SurvivalParams,
    l_draw: LongParams,
    patient: ObservedPatient,
    t: float,
    y_mis: float | None = None,
) -> CompositeDiffDistribution:
    """Atoms of (2w - 1) * (observed minus imputed composite) at horizon t.

    ``y_mis`` places the finite atom; by default the counterfactual
    predictive mean is used.
    """
    sign = 2 * patient.w - 1
    s = predict_s_mis(s_draw, patient, t)
    if patient.alive_at(t):
        if y_mis is None:
            y_mis = predict_y_mis(l_draw, patient, t)[0]
        finite = sign * (patient.y_obs[t] - y_mis)
        atoms = [(finite, s), (sign * math.inf, 1.0 - s)]
    else:
        atoms = [(-sign * math.inf, s), (sign * math.inf, 1.0 - s)]
    return CompositeDiffDistribution(atoms=tuple((v, m) for v, m in atoms if m > 0.0))


def sace_draw(
    s_draw: SurvivalParams, l_draw: LongParams, data: ObservedDataset, t: float
) -> float:
    """Always-survivor contrast: survivor differences weighted by the
    probability of counterfactual survival. NaN when no observed survivor
    carries positive weight."""
    num = 0.0
    den = 0.0
    for p in data.patients:
        if not p.alive_at(t):
            continue
        s = predict_s_mis(s_draw, p, t)
        mu_mis, _ = predict_y_mis(l_draw, p, t)
        num += s * (2 * p.w - 1) * (p.y_obs[t] - mu_mis)
        den += s
    if den == 0.0:
        return float("nan")
    return num / den


def pc_draw(
    s_draw: SurvivalParams, l_draw: LongParams, data: ObservedDataset, t: float
) -> float:
    """Probability that a patient fares better under treatment, averaged
    over patients, with latent-stratum and residual uncertainty integrated
    analytically."""
    total = 0.0
    for p in data.patients:
        sign = 2 * p.w - 1
        s = predict_s_mis(s_draw, p, t)
        if p.alive_at(t):
            mu_mis, sigma = predict_y_mis(l_draw, p, t)
            z = sign * (p.y_obs[t] - mu_mis)
            if sigma > 0:
                p_fin = float(ndtr(z / sigma))
            else:  # degenerate predictive: indicator with half credit for ties
                p_fin = 1.0 if z > 0 else (0.5 if z == 0 else 0.0)
            total += s * p_fin + (1.0 - s) * (1.0 if p.w == 1 else 0.0)
        else:
            total += (1.0 - s) if p.w == 1 else s
    return total / len(data)


def _pooled_median(values: np.ndarray, masses: np.ndarray, half: float) -> float:
    """Value where cumulative atom mass first reaches ``half``.

    When the boundary falls exactly between two atoms the two are averaged;
    averaging involving an infinity yields that infinity, and oppositely
    infinite neighbors yield NaN (no defined midpoint).
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    cum = np.cumsum(masses[order])
    idx = int(np.searchsorted(cum, half - _MASS_TOL))
    if idx >= len(v):
        idx = len(v) - 1
    at_boundary = abs(cum[idx] - half) <= _MASS_TOL and idx + 1 < len(v)
    if not at_boundary:
        return float(v[idx])
    lo, hi = float(v[idx]), float(v[idx + 1])
    if math.isinf(lo) and math.isinf(hi) and lo != hi:
        return float("nan")
    if math.isinf(lo):
        return lo
    if math.isinf(hi):
        return hi
    return 0.5 * (lo + hi)


def sim_draw(
    s_draw: SurvivalParams,
    l_draw: LongParams,
    data: ObservedDataset,
    t: float,
    rng: np.random.Generator | None = None,
    impute_noise: bool = False,
) -> float:
    """Median of the pooled composite-difference atoms for one draw.

    Each patient contributes total mass one. Finite atoms sit at the
    counterfactual predictive mean of the draw; ``impute_noise`` switches to
    one realized counterfactual value per patient (Monte Carlo variant,
    requires ``rng``). Returns +/-inf when the median mass point is
    infinite.
    """
    if impute_noise and rng is None:
        raise ValueError("impute_noise requires a generator")
    values = []
    masses = []
    for p in data.patients:
        # one normal per patient keeps the stream aligned with the batched path
        z = rng.standard_normal() if impute_noise else 0.0
        y_mis = None
        if p.alive_at(t):
            mu_mis, sigma = predict_y_mis(l_draw, p, t)
            y_mis = mu_mis + sigma * z
        for v, m in composite_diff_dist(s_draw, l_draw, p, t, y_mis=y_mis).atoms:
            values.append(v)
            masses.append(m)
    return _pooled_median(np.array(values), np.array(masses), half=len(data) / 2.0)


def rmst_draw(s_draw: SurvivalParams, data: ObservedDataset, t: float) -> float:
    """Restricted-mean survival contrast for one draw: observed restricted
    time minus the integrated counterfactual survival curve, averaged with
    the assignment sign."""
    total = 0.0
    for p in data.patients:
        integral = rmst_integral(s_draw, p.x, 1 - p.w, t)
        total += (2 * p.w - 1) * (min(p.t_obs, t) - integral)
    return total / len(data)


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


def _wins_and_ties(mine: np.ndarray, theirs: np.ndarray) -> tuple[int, int]:
    """Pairs (i, j) with mine[i] > theirs[j], and with mine[i] == theirs[j]."""
    theirs = np.sort(theirs)
    below = np.searchsorted(theirs, mine, side="left")
    tied = np.searchsorted(theirs, mine, side="right") - below
    return int(below.sum()), int(tied.sum())


def wmw(data: ObservedDataset, t: float) -> float | None:
    """Across-arm win fraction of observed composites with half credit for
    ties (rank-statistic reference; differs from the pairwise estimand).

    A survivor beats a death, two deaths compare by death time and two
    survivors by outcome (``composite_order``); the pairs are counted by
    sorting, not enumerated. The count of wins plus half the ties is exact
    in floating point, so the fraction equals the pairwise sum's."""
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
    y_wins, y_ties = _wins_and_ties(at.y[treated & alive], at.y[control & alive])
    t_wins, t_ties = _wins_and_ties(cols.t_obs[treated & dead], cols.t_obs[control & dead])
    survivor_over_death = int((treated & alive).sum()) * int((control & dead).sum())
    total = (y_wins + t_wins + survivor_over_death) + 0.5 * (y_ties + t_ties)
    return total / (n1 * n0)


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
        """``summarize`` of each estimand. Those whose draws are all finite
        share one percentile call, which takes each row's order statistics
        and interpolates them as a one-row call does."""
        names = ("sace", "pc", "sim", "rmst")
        rows = np.stack([np.asarray(getattr(self, name), dtype=float) for name in names])
        whole = np.isfinite(rows).all(axis=1) & (rows.shape[1] > 0)
        batched = {}
        if whole.any():
            lo, med, hi = np.percentile(rows[whole], [2.5, 50.0, 97.5], axis=1)
            batched = {
                name: EstimandSummary(float(m), float(l), float(h), 0.0, rows.shape[1])
                for name, l, m, h in zip(np.array(names)[whole], lo, med, hi)
            }
        return {name: batched[name] if name in batched else summarize(row)
                for name, row in zip(names, rows)}


def _rmst_batch(lam: np.ndarray, scale: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """Vectorized restricted-mean integral.

    lam (K, J) segment rates, scale (K, n) covariate multipliers, overlaps
    (J,) segment lengths inside [0, t]; returns (K, n). A segment past t
    adds an exact zero, so only the others are evaluated; the zeros stay in
    the (K, n, J) sum, which therefore adds in the same order for any J.
    """
    live = overlaps > 0
    r = lam[:, None, live] * scale[:, :, None]  # (K, n, live segments)
    seg_haz = r * overlaps[None, None, live]
    prefix = np.concatenate(
        [np.zeros_like(seg_haz[..., :1]), np.cumsum(seg_haz, axis=2)[..., :-1]], axis=2
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        piece = np.where(r > 0, -np.expm1(-seg_haz) / np.where(r > 0, r, 1.0), overlaps[live])
    terms = np.zeros(scale.shape + overlaps.shape)
    terms[..., live] = np.exp(-prefix) * piece
    return np.sum(terms, axis=2)


def rmst_estimand_draws(
    spost: SurvivalPosterior, data: ObservedDataset, t: float, k: int
) -> np.ndarray:
    """Restricted-mean contrast draws; needs only the survival posterior.

    Each patient's integral runs under the unassigned arm only; the
    covariate scales are still one product over all patients per arm."""
    cols = data.columns
    s_idx = spost.subsample_indices(k)
    overlaps = spost.grid.overlaps(float(t))
    integral = np.empty((len(s_idx), len(data)))
    for arm, lam, alpha in ((0, spost.lambda0, spost.alpha0), (1, spost.lambda1, spost.alpha1)):
        scale = np.exp(alpha[s_idx] @ cols.x.T)
        unassigned = cols.w != arm
        integral[:, unassigned] = _rmst_batch(lam[s_idx], scale[:, unassigned], overlaps)
    sign = 2 * cols.w - 1
    return (sign[None, :] * (np.minimum(cols.t_obs, t)[None, :] - integral)).mean(axis=1)


def _sim_batch(values: np.ndarray, masses: np.ndarray, half: float) -> np.ndarray:
    """``_pooled_median`` of every row of ``values`` / ``masses`` (draws,
    atoms), with the same floating-point operations in the same order.

    Zero-mass atoms stay in the rows, where ``_pooled_median``'s callers drop
    them: adding 0.0 leaves each cumulative sum as it was, and such an atom
    is never the one picked nor the neighbour at a boundary."""
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
    rng: np.random.Generator | None = None,
    impute_noise: bool = False,
) -> EstimandDraws:
    """Evaluate all estimators over k paired posterior draws.

    Draw k of the survival posterior is paired with draw k of the
    longitudinal posterior (both subsampled evenly from their pools). The
    result is deterministic given the posteriors and the generator state.
    """
    if impute_noise and rng is None:
        raise ValueError("impute_noise requires a generator")
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
    beta0 = lpost.beta0[l_idx]
    beta1 = lpost.beta1[l_idx]
    sigma = lpost.sigma[l_idx]
    arm_mis = 1 - w
    mu_mis = beta0[:, arm_mis] + np.einsum("knp,np->kn", beta1[:, arm_mis, :], x)

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

    # SIM: each patient's atoms as in composite_diff_dist; finite atoms at
    # the predictive mean unless the Monte Carlo imputation variant is
    # requested. The infinite atoms sit where they do for every draw.
    if impute_noise:
        y_mis = mu_mis + sigma[:, None] * rng.standard_normal((k, n))
    else:
        y_mis = mu_mis
    v_inf = np.concatenate([np.where(sign[surv] > 0, np.inf, -np.inf),
                            np.where(sign[dead] > 0, -np.inf, np.inf),
                            np.where(sign[dead] > 0, np.inf, -np.inf)])
    m_dead = s_mis[:, dead]
    sim = np.empty(k)
    step = max(1, _SIM_BLOCK_ATOMS // (2 * n))
    for start in range(0, k, step):
        b = slice(start, start + step)
        v_fin = sign[surv] * (y[surv] - y_mis[b][:, surv])
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
