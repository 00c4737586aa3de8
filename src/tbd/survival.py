"""Bayesian piecewise-constant proportional-hazards model, one set of
parameters per arm. Its likelihood depends on the data only through each
patient's exposure in each hazard segment and each segment's death count.

The hazard for a patient with covariates x under arm w is
``lambda_j(w) * exp(alpha(w) . x)`` on grid segment j. Survival and
restricted-mean integrals have closed forms under piecewise-constant
hazards; both are implemented here and checked against quadrature in the
test suite. Beyond the last cutpoint the final segment rate is extended.

The posterior is sampled collapsed: with the Gamma-prior segment rates
integrated out, alpha has a concave log marginal, sampled by independence
Metropolis-Hastings from a multivariate t at its mode; the rates are then
drawn exactly given alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import mcmc
from .codec import decode, encode
from .science import ObservedDataset, ObservedPatient


class FitError(RuntimeError):
    pass


@dataclass(frozen=True)
class HazardGrid:
    """Hazard segment cutpoints 0 = tau_0 < tau_1 < ... < tau_J."""

    cutpoints: tuple[float, ...]

    def __post_init__(self) -> None:
        cuts = self.cutpoints
        if len(cuts) < 2 or cuts[0] != 0.0:
            raise ValueError("grid must start at 0 and have at least one segment")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ValueError("cutpoints must be strictly increasing")

    @property
    def n_segments(self) -> int:
        return len(self.cutpoints) - 1

    @property
    def upper(self) -> float:
        return self.cutpoints[-1]

    def overlaps(self, t) -> np.ndarray:
        """Length of [0, t] inside each segment; shape (..., J).

        Times past the last cutpoint accrue in the final segment.
        """
        t = np.asarray(t, dtype=float)
        cuts = np.asarray(self.cutpoints)
        lo, hi = cuts[:-1], cuts[1:]
        out = np.clip(t[..., None] - lo, 0.0, hi - lo)
        excess = np.clip(t - cuts[-1], 0.0, None)
        out[..., -1] += excess
        return out

    def segment_of(self, t):
        """Index of the segment containing t (t in (tau_{j-1}, tau_j]);
        times past the last cutpoint fall in the final segment."""
        j = np.searchsorted(self.cutpoints[1:], t, side="left")
        return np.minimum(j, self.n_segments - 1)


def default_grid(follow_up: float, visit_times=(3.0, 6.0, 9.0, 12.0, 15.0)) -> HazardGrid:
    """Grid with cutpoints at the visit times, covering the follow-up."""
    cuts = [0.0] + sorted(float(v) for v in visit_times)
    if cuts[-1] < follow_up:
        cuts.append(float(follow_up))
    return HazardGrid(cutpoints=tuple(cuts))


@dataclass(frozen=True)
class SurvivalPriors:
    """Gamma priors on segment rates and Normal priors on covariate effects.

    Both are given in (mean, standard deviation) form; the Gamma is
    converted internally to shape/rate.
    """

    lambda_mean: float = 0.035
    lambda_sd: float = 0.1
    alpha_mean: float = 0.0
    alpha_sd: float = 1.0

    def __post_init__(self) -> None:
        if self.lambda_mean <= 0 or self.lambda_sd <= 0 or self.alpha_sd <= 0:
            raise ValueError("prior means/sds must be positive where required")

    @property
    def gamma_shape(self) -> float:
        return (self.lambda_mean / self.lambda_sd) ** 2

    @property
    def gamma_rate(self) -> float:
        return self.lambda_mean / self.lambda_sd**2


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


# --- posterior ---------------------------------------------------------------

S_MIS_BLOCK = 256  # posterior draws per block of SurvivalPosterior.s_mis_matrix


@dataclass
class SurvivalPosterior:
    """Pooled posterior draws of the two-arm hazard model."""

    grid: HazardGrid
    lambda0: np.ndarray
    lambda1: np.ndarray
    alpha0: np.ndarray
    alpha1: np.ndarray
    diagnostics: dict[str, dict[str, float]]
    converged: bool
    accept_rates: dict[str, float] = field(default_factory=dict)

    @property
    def n_draws(self) -> int:
        return self.lambda0.shape[0]

    def draw(self, k: int) -> SurvivalParams:
        return SurvivalParams(
            grid=self.grid,
            lambda0=self.lambda0[k],
            lambda1=self.lambda1[k],
            alpha0=self.alpha0[k],
            alpha1=self.alpha1[k],
        )

    def mean_params(self) -> SurvivalParams:
        return SurvivalParams(
            grid=self.grid,
            lambda0=self.lambda0.mean(axis=0),
            lambda1=self.lambda1.mean(axis=0),
            alpha0=self.alpha0.mean(axis=0),
            alpha1=self.alpha1.mean(axis=0),
        )

    def subsample_indices(self, k: int) -> np.ndarray:
        """Evenly spaced draw indices for pairing with another posterior."""
        return mcmc.even_indices(self.n_draws, k)

    def s_mis_matrix(self, data: ObservedDataset, t: float, indices=None) -> np.ndarray:
        """Counterfactual survival probabilities under each patient's unassigned arm.

        With ``indices``, one row per listed draw: shape (len(indices), patients).
        With ``indices=None``, the mean over every posterior draw: shape
        (patients,), the always-survivor weights' input. Draws are taken
        ``S_MIS_BLOCK`` at a time, so neither result builds a temporary of
        shape (draws, patients).
        """
        cols = data.columns
        idx = np.arange(self.n_draws) if indices is None else np.asarray(indices)
        horizon = np.where((cols.d_obs == 1) & (cols.t_obs <= t), cols.t_obs, t)
        overlaps = self.grid.overlaps(horizon)  # (n, J)
        n = len(cols.w)
        out = np.zeros(n) if indices is None else np.empty((len(idx), n))
        for arm, lam, alpha in ((0, self.lambda0, self.alpha0), (1, self.lambda1, self.alpha1)):
            sel = np.flatnonzero(cols.w != arm)  # patients whose counterfactual arm is `arm`
            x_arm, overlaps_arm = cols.x[sel], overlaps[sel]
            for start in range(0, len(idx), S_MIS_BLOCK):
                block = idx[start:start + S_MIS_BLOCK]
                s = np.exp(alpha[block] @ x_arm.T)
                s *= lam[block] @ overlaps_arm.T
                np.exp(np.negative(s, out=s), out=s)
                if indices is None:
                    out[sel] += s.sum(axis=0)
                else:
                    out[start:start + len(block), sel] = s
        return out / len(idx) if indices is None else out

    def to_json(self) -> dict:
        return encode(self)

    @classmethod
    def from_json(cls, doc: dict) -> "SurvivalPosterior":
        return decode(cls, doc)


T_DF = 4.0  # degrees of freedom of the independence proposal for alpha


@dataclass(frozen=True)
class _Arm:
    """What one arm's likelihood depends on, with lambda integrated out."""

    x: np.ndarray  # (patients, p)
    overlap: np.ndarray  # (patients, J): exposure of each patient in each segment
    events: np.ndarray  # (J,) deaths per segment
    sum_dx: np.ndarray  # (p,) covariates summed over deaths


def _arm(data: ObservedDataset, grid: HazardGrid, w: int) -> _Arm:
    cols = data.columns
    sel = cols.w == w
    x, t_obs, died = cols.x[sel], cols.t_obs[sel], cols.d_obs[sel] == 1
    events = np.bincount(grid.segment_of(t_obs[died]), minlength=grid.n_segments)
    return _Arm(x=x, overlap=grid.overlaps(t_obs), events=events, sum_dx=x[died].sum(axis=0))


def _exposures(arm: _Arm, alpha: np.ndarray) -> np.ndarray:
    """E_j(alpha) = sum_i overlap_ij exp(alpha . x_i) for each row of
    ``alpha`` (K, p); shape (K, J)."""
    return np.exp(alpha @ arm.x.T) @ arm.overlap


def _log_marginal(arm: _Arm, priors: SurvivalPriors, alpha: np.ndarray, expo: np.ndarray):
    """Log posterior of alpha (K, p) with the segment rates integrated out,
    up to a constant, given ``expo = _exposures(arm, alpha)``."""
    z = (alpha - priors.alpha_mean) / priors.alpha_sd
    return (
        -0.5 * np.sum(z**2, axis=1)
        + alpha @ arm.sum_dx
        - np.log(priors.gamma_rate + expo) @ (priors.gamma_shape + arm.events)
    )


def _alpha_mode(arm: _Arm, priors: SurvivalPriors) -> tuple[np.ndarray, np.ndarray]:
    """Mode of the (concave) alpha marginal by damped Newton, and the
    negative Hessian there."""
    p = arm.x.shape[1]
    shape = priors.gamma_shape + arm.events
    prior_prec = np.eye(p) / priors.alpha_sd**2

    def grad_neg_hess(alpha):
        scaled = arm.overlap * np.exp(arm.x @ alpha)[:, None]  # (n, J)
        e0 = scaled.sum(axis=0)  # (J,)
        e1 = scaled.T @ arm.x  # (J, p)
        e2 = np.einsum("nj,nk,nl->jkl", scaled, arm.x, arm.x)
        c = shape / (priors.gamma_rate + e0)
        grad = -prior_prec @ (alpha - priors.alpha_mean) + arm.sum_dx - c @ e1
        outer = e1[:, :, None] * e1[:, None, :] / (priors.gamma_rate + e0)[:, None, None]
        return grad, prior_prec + np.einsum("j,jkl->kl", c, e2 - outer)

    def value(alpha):
        return float(_log_marginal(arm, priors, alpha[None], _exposures(arm, alpha[None]))[0])

    alpha = np.full(p, priors.alpha_mean)
    current = value(alpha)
    for _ in range(100):
        grad, neg_hess = grad_neg_hess(alpha)
        step = np.linalg.solve(neg_hess, grad)
        if grad @ step < 1e-10:  # squared distance to the mode in posterior sds
            break
        scale = 1.0
        while (trial := value(alpha + scale * step)) < current and scale > 1e-8:
            scale /= 2
        if trial < current:  # no ascent left at float precision: at the mode
            break
        alpha, current = alpha + scale * step, trial
    else:
        raise FitError("Newton search for the alpha mode did not converge")
    if not np.all(np.isfinite(alpha)):
        raise FitError("non-finite alpha mode")
    return alpha, neg_hess


def _sample_arm(arm: _Arm, priors: SurvivalPriors, rngs, samples: int):
    """Draw (chains, samples, .) arrays of lambda and alpha for one arm.

    alpha moves by independence Metropolis-Hastings with a multivariate t
    proposal at the Laplace fit of its marginal; each lambda_j is then drawn
    exactly from Gamma(a + d_j, b + E_j(alpha)). Each chain starts at a
    proposal draw; the proposal is close to the target, so there is no
    warmup."""
    mode, neg_hess = _alpha_mode(arm, priors)
    chol = np.linalg.cholesky(np.linalg.inv(neg_hess))
    p = len(mode)
    lam, alpha, accepted = [], [], 0
    for rng in rngs:
        z = rng.standard_normal((samples + 1, p))
        mix = rng.gamma(T_DF / 2, 2 / T_DF, size=samples + 1)  # chi2_df / df
        props = mode + (z @ chol.T) / np.sqrt(mix)[:, None]
        expo = _exposures(arm, props)
        log_q = -0.5 * (T_DF + p) * np.log1p(np.sum(z**2, axis=1) / mix / T_DF)
        log_w = _log_marginal(arm, priors, props, expo) - log_q
        log_u = np.log(rng.uniform(size=samples))
        state = np.empty(samples, dtype=int)
        cur = 0
        for k in range(samples):
            if log_u[k] < log_w[k + 1] - log_w[cur]:
                cur = k + 1
                accepted += 1
            state[k] = cur
        rates = priors.gamma_rate + expo[state]
        lam.append(rng.gamma(priors.gamma_shape + arm.events, size=rates.shape) / rates)
        alpha.append(props[state])
    return np.stack(lam), np.stack(alpha), accepted / (samples * len(rngs))


def fit_survival(
    data: ObservedDataset,
    grid: HazardGrid,
    priors: SurvivalPriors,
    cfg: mcmc.McmcConfig,
) -> SurvivalPosterior:
    """Fit the piecewise-exponential model, one independent posterior per arm.

    The arms share no parameters, so separate fits are identical in
    distribution to one joint fit. Each arm draws ``cfg.chains`` streams of
    ``cfg.samples`` draws; R-hat and ESS are computed over the streams.
    Returns a flagged (``converged=False``) posterior rather than raising
    when diagnostics fail.
    """
    if grid.upper < data.follow_up:
        raise ValueError(f"grid ends at {grid.upper} but follow-up is {data.follow_up}")
    arm_seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    draws: dict[str, np.ndarray] = {}
    accept: dict[str, float] = {}
    for w in (0, 1):
        rngs = mcmc.streams(arm_seeds[w], cfg.chains)
        arm = _arm(data, grid, w)
        draws[f"lambda{w}"], draws[f"alpha{w}"], accept[f"alpha{w}"] = _sample_arm(
            arm, priors, rngs, cfg.samples
        )
    diagnostics, converged = mcmc.stream_diagnostics(draws, cfg)
    pooled = {name: d.reshape(-1, d.shape[-1]) for name, d in draws.items()}
    return SurvivalPosterior(
        grid=grid,
        **pooled,
        diagnostics=diagnostics,
        converged=converged,
        accept_rates=accept,
    )
