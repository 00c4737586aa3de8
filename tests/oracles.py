"""The per-patient scalar path: one posterior draw, one patient at a time.

These functions state the definitions that the package evaluates as array
code: over many draws (``SurvivalPosterior.s_mis_matrix`` and
``rmst_matrix``, ``estimators.estimand_draws``) and over all patients of a
science table (``science.composite_metric``, ``simulate.true_estimands``,
``metrics.mae_reconstruction``). The tests use them as the reference for
that array code and, with quadrature and enumeration, as oracles of the
acceptance criteria 2, 4 and 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtr

from tbd.longitudinal import LongitudinalPosterior
from tbd.science import InvariantError, ObservedDataset, ObservedPatient, PatientTruth, ScienceTable
from tbd.simulate import TruthRecord
from tbd.survival import HazardGrid, SurvivalPosterior

_MASS_TOL = 1e-12


# --- principal strata and composite outcomes --------------------------------


class Stratum(Enum):
    """Principal stratum at a horizon t, from joint survival under both arms.

    LL always-survivor, DL protected (dies only under control), LD harmed
    (dies only under treatment), DD never-survivor.
    """

    LL = "LL"
    DL = "DL"
    LD = "LD"
    DD = "DD"


def classify_stratum(t0: float, t1: float, t: float) -> Stratum:
    """Classify a patient by survival status under both arms at horizon t.

    ``t0`` and ``t1`` are the uncensored death times under control and
    treatment. Death exactly at the horizon counts as dead at that horizon.
    """
    if t0 <= 0 or t1 <= 0 or t <= 0:
        raise ValueError(f"death times and horizon must be positive, got t0={t0}, t1={t1}, t={t}")
    alive0 = t0 > t
    alive1 = t1 > t
    if alive0 and alive1:
        return Stratum.LL
    if alive0:
        return Stratum.LD
    if alive1:
        return Stratum.DL
    return Stratum.DD


@dataclass(frozen=True)
class CompositeOutcome:
    """Composite outcome (y, t, d) at an evaluation horizon.

    ``y`` is the longitudinal value, present iff the patient is alive at the
    horizon (d = 0); ``t`` is the restricted event time min(death time,
    horizon); ``d`` is 1 iff dead at or before the horizon.
    """

    y: float | None
    t: float
    d: int

    def __post_init__(self) -> None:
        if self.d not in (0, 1):
            raise InvariantError(f"d must be 0 or 1, got {self.d}")
        if (self.y is None) != (self.d == 1):
            raise InvariantError("y must be present iff alive (d = 0) at the horizon")
        if self.y is not None and not math.isfinite(self.y):
            raise InvariantError("longitudinal value must be finite")


def composite_order(z1: CompositeOutcome, z0: CompositeOutcome) -> int:
    """Order two composite outcomes (treated arm first) with death as worst.

    Returns +1 if z1 is the better outcome, -1 if worse, 0 if equivalent.
    A survivor always beats a death; two deaths are ordered by event time;
    two survivors by the longitudinal value.
    """
    if z1.d == 0 and z0.d == 1:
        return 1
    if z1.d == 1 and z0.d == 0:
        return -1
    if z1.d == 1:  # both dead, later death is better
        if z1.t > z0.t:
            return 1
        if z1.t < z0.t:
            return -1
        return 0
    assert z1.y is not None and z0.y is not None
    if z1.y > z0.y:
        return 1
    if z1.y < z0.y:
        return -1
    return 0


def composite_metric(z1: CompositeOutcome, z0: CompositeOutcome) -> float:
    """Signed distance between composite outcomes (treated minus control).

    Finite (the plain longitudinal difference) when both survive, zero for
    deaths at identical times, and +/-inf whenever survival status or death
    timing differs, signed consistently with :func:`composite_order`. The
    package's ``composite_metric`` is this, elementwise over arrays.
    """
    if z1.d == 0 and z0.d == 0:
        assert z1.y is not None and z0.y is not None
        return z1.y - z0.y
    if z1.d == 1 and z0.d == 1:
        if z1.t == z0.t:
            return 0.0
        return math.inf if z1.t > z0.t else -math.inf
    return math.inf if z0.d == 1 else -math.inf


def observed_composite(p: ObservedPatient, t: float) -> CompositeOutcome:
    """Observed composite outcome of a patient at horizon t."""
    if p.alive_at(t):
        if t not in p.y_obs:
            raise KeyError(f"patient {p.id} has no measurement at month {t}")
        return CompositeOutcome(y=p.y_obs[t], t=t, d=0)
    return CompositeOutcome(y=None, t=p.t_obs, d=1)


def potential_composite(p: PatientTruth, arm: int, t: float) -> CompositeOutcome:
    """Potential composite outcome of a science-table patient under ``arm``."""
    td = p.death_time(arm)
    if td > t:
        y = p.trajectory(arm).get(t)
        if y is None:
            raise KeyError(f"patient {p.id} has no arm-{arm} value at month {t}")
        return CompositeOutcome(y=y, t=t, d=0)
    return CompositeOutcome(y=None, t=min(td, t), d=1)


# --- exact truths --------------------------------------------------------------


def extended_median(values) -> float | None:
    """Order-statistic median over the extended reals, by ``sorted``:
    opposite infinities in the middle give None, an infinity in the middle
    pair gives that infinity."""
    vals = sorted(values)
    n = len(vals)
    if n % 2 == 1:
        return vals[n // 2]
    lo, hi = vals[n // 2 - 1], vals[n // 2]
    if math.isinf(lo) and math.isinf(hi) and lo != hi:
        return None
    if math.isinf(lo):
        return lo
    if math.isinf(hi):
        return hi
    return 0.5 * (lo + hi)


def true_estimands(science: ScienceTable, t: float) -> TruthRecord:
    """Exact finite-sample estimands at horizon t, one patient at a time:
    the stratum and both potential composites of each, then running sums."""
    n = len(science)
    ll_diffs = []
    pc_sum = 0.0
    metrics = []
    rmst_sum = 0.0
    deaths0 = 0
    deaths1 = 0
    for p in science.patients:
        stratum = classify_stratum(p.t0, p.t1, t)
        z1 = potential_composite(p, 1, t)
        z0 = potential_composite(p, 0, t)
        if stratum is Stratum.LL:
            ll_diffs.append(p.y1[t] - p.y0[t])
        order = composite_order(z1, z0)
        pc_sum += 1.0 if order > 0 else (0.5 if order == 0 else 0.0)
        metrics.append(composite_metric(z1, z0))
        rmst_sum += min(p.t1, t) - min(p.t0, t)
        deaths0 += p.t0 <= t
        deaths1 += p.t1 <= t
    return TruthRecord(
        time=t,
        sace=float(np.mean(ll_diffs)) if ll_diffs else None,
        pc=pc_sum / n,
        sim=extended_median(metrics),
        rmst=rmst_sum / n,
        death_frac_control=deaths0 / n,
        death_frac_treated=deaths1 / n,
        n_ll=len(ll_diffs),
    )


def mae_reconstruction(science: ScienceTable, imputed_means, t: float) -> float | None:
    """Mean absolute error of imputed counterfactual outcomes at horizon t,
    over the patients alive at t under their unassigned arm."""
    errors = []
    for p, mu in zip(science.patients, imputed_means):
        arm_mis = 1 - p.w
        if p.death_time(arm_mis) > t:
            errors.append(abs(p.trajectory(arm_mis)[t] - mu))
    return float(np.mean(errors)) if errors else None


# --- survival ----------------------------------------------------------------


@dataclass(frozen=True)
class SurvivalParams:
    """One posterior draw: per-arm segment rates and covariate effects."""

    grid: HazardGrid
    lambda0: np.ndarray
    lambda1: np.ndarray
    alpha0: np.ndarray
    alpha1: np.ndarray

    def __post_init__(self) -> None:
        for name in ("lambda0", "lambda1"):
            lam = getattr(self, name)
            if len(lam) != self.grid.n_segments:
                raise ValueError(f"{name} must have one rate per grid segment")
            if np.any(np.asarray(lam) <= 0):
                raise ValueError(f"{name} rates must be strictly positive")

    def rates(self, w: int) -> np.ndarray:
        return self.lambda1 if w == 1 else self.lambda0

    def covariate_effect(self, w: int) -> np.ndarray:
        return self.alpha1 if w == 1 else self.alpha0


# --- closed-form survival quantities ----------------------------------------


def _cumulative_hazard(rates: np.ndarray, grid: HazardGrid, t) -> np.ndarray:
    return grid.overlaps(t) @ np.asarray(rates)


def survival_prob(p: SurvivalParams, x, w: int, t: float) -> float:
    """S(t) = exp(-integral of the hazard over [0, t]); equals 1 at t = 0."""
    if t < 0:
        raise ValueError("t must be non-negative")
    base = _cumulative_hazard(p.rates(w), p.grid, float(t))
    scale = math.exp(float(np.dot(p.covariate_effect(w), np.asarray(x, dtype=float))))
    return float(np.exp(-base * scale))


def rmst_integral(p: SurvivalParams, x, w: int, t: float) -> float:
    """Expected survival time restricted to [0, t], in closed form.

    Sums exp(-H(a)) * (1 - exp(-r * dt)) / r over grid segments, with r the
    segment hazard for (x, w). Stable as r -> 0, where a segment contributes
    its full length.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    scale = math.exp(float(np.dot(p.covariate_effect(w), np.asarray(x, dtype=float))))
    rates = np.asarray(p.rates(w)) * scale
    overlaps = p.grid.overlaps(float(t))
    cum = np.concatenate([[0.0], np.cumsum(rates * overlaps)])
    total = 0.0
    for j in range(p.grid.n_segments):
        dt = overlaps[j]
        if dt == 0.0:
            continue
        r = rates[j]
        piece = dt if r == 0.0 else -math.expm1(-r * dt) / r
        total += math.exp(-cum[j]) * piece
    return total


def predict_s_mis(p: SurvivalParams, patient: ObservedPatient, t: float) -> float:
    """Probability of surviving under the unassigned arm.

    Evaluated at horizon t for patients observed alive at t, and at the
    observed death time for patients who died at or before t.
    """
    arm = 1 - patient.w
    horizon = patient.t_obs if (patient.d_obs == 1 and patient.t_obs <= t) else t
    return survival_prob(p, patient.x, arm, horizon)


def survival_draw(post: SurvivalPosterior, k: int) -> SurvivalParams:
    """Draw k of a survival posterior."""
    return SurvivalParams(
        grid=post.grid,
        lambda0=post.lambda0[k],
        lambda1=post.lambda1[k],
        alpha0=post.alpha0[k],
        alpha1=post.alpha1[k],
    )


# --- longitudinal ------------------------------------------------------------


@dataclass(frozen=True)
class LongParams:
    """One posterior draw: per-arm intercepts/coefficients, shared scale.

    ``beta0[w]`` and ``beta1[w]`` give arm w's intercept and covariate
    coefficients.
    """

    beta0: np.ndarray
    beta1: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def mean(self, x, w: int) -> float:
        return float(self.beta0[w] + np.dot(np.asarray(x, dtype=float), self.beta1[w]))


def predict_y_mis(params: LongParams, patient: ObservedPatient, t: float) -> tuple[float, float]:
    """Counterfactual predictive mean and residual scale for one patient."""
    return params.mean(patient.x, 1 - patient.w), params.sigma


def long_draw(post: LongitudinalPosterior, k: int) -> LongParams:
    """Draw k of a longitudinal posterior."""
    return LongParams(beta0=post.beta0[k], beta1=post.beta1[k], sigma=float(post.sigma[k]))


# --- estimators --------------------------------------------------------------


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
) -> CompositeDiffDistribution:
    """Atoms of (2w - 1) * (observed minus imputed composite) at horizon t,
    the finite atom at the counterfactual predictive mean."""
    sign = 2 * patient.w - 1
    s = predict_s_mis(s_draw, patient, t)
    if patient.alive_at(t):
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
    s_draw: SurvivalParams, l_draw: LongParams, data: ObservedDataset, t: float
) -> float:
    """Median of the pooled composite-difference atoms for one draw.

    Each patient contributes total mass one. Finite atoms sit at the
    counterfactual predictive mean of the draw. Returns +/-inf when the
    median mass point is infinite.
    """
    values = []
    masses = []
    for p in data.patients:
        for v, m in composite_diff_dist(s_draw, l_draw, p, t).atoms:
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
