"""The per-patient scalar path: one posterior draw, one patient at a time.

These functions state the definitions that the package evaluates as array
code over many draws (``SurvivalPosterior.s_mis_matrix`` and
``rmst_matrix``, ``estimators.estimand_draws``). The tests use them as the
reference for that array code and, with quadrature and enumeration, as
oracles of the acceptance criteria 4 and 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from tbd.longitudinal import LongitudinalPosterior
from tbd.science import ObservedDataset, ObservedPatient
from tbd.survival import HazardGrid, SurvivalPosterior

_MASS_TOL = 1e-12


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
