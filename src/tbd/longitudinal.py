"""Per-visit-time Bayesian linear model of the longitudinal outcome.

At each visit time t the outcome is modeled as Normal with an arm-specific
affine mean in the baseline covariates and a common residual scale. Each
patient's log-likelihood contribution is weighted by the probability that
the patient belongs to the always-survivor stratum at t: zero for patients
dead or unmeasured at t, and the counterfactual survival probability for
patients observed alive.

Given sigma the coefficients are Gaussian, so the fit draws sigma from its
closed-form marginal on a log grid and then the coefficients exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import mcmc
from .codec import decode, encode
from .science import ObservedDataset, ObservedPatient


class LongitudinalFitError(RuntimeError):
    pass


@dataclass(frozen=True)
class LongPriors:
    """Normal priors on regression coefficients, half-Normal on the scale.

    All spreads are standard deviations.
    """

    beta0_mean: float = -2.0
    beta0_sd: float = 3.0
    beta1_mean: float = 0.0
    beta1_sd: float = 100.0
    sigma_sd: float = 100.0

    def __post_init__(self) -> None:
        if self.beta0_sd <= 0 or self.beta1_sd <= 0 or self.sigma_sd <= 0:
            raise ValueError("prior sds must be positive")


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


def compute_weights(s_mis, data: ObservedDataset, t: float) -> np.ndarray:
    """Always-survivor membership probabilities p_{i,t}.

    ``s_mis`` holds each patient's counterfactual survival probability at t
    (from one survival draw or the posterior mean). The weight is that
    probability for patients alive and measured at t, and zero otherwise.
    """
    return np.where(data.columns.at(t).measured, s_mis, 0.0)


def predict_y_mis(params: LongParams, patient: ObservedPatient, t: float) -> tuple[float, float]:
    """Counterfactual predictive mean and residual scale for one patient."""
    return params.mean(patient.x, 1 - patient.w), params.sigma


def counterfactual_mean(beta0, beta1, x, w) -> np.ndarray:
    """Each patient's predictive mean under the arm not assigned.

    ``beta0`` (..., 2) and ``beta1`` (..., 2, p) hold one coefficient set or
    a stack of draws; ``x`` (n, p) and ``w`` (n,) are the covariates and
    arms. Returns (..., n)."""
    arm_mis = 1 - w
    return beta0[..., arm_mis] + np.einsum("...np,np->...n", beta1[..., arm_mis, :], x)


@dataclass
class LongitudinalPosterior:
    """Pooled posterior draws of the visit-time-t longitudinal model."""

    t: float
    beta0: np.ndarray  # (K, 2)
    beta1: np.ndarray  # (K, 2, p)
    sigma: np.ndarray  # (K,)
    diagnostics: dict[str, dict[str, float]]
    converged: bool
    accept_rates: dict[str, float] = field(default_factory=dict)

    @property
    def n_draws(self) -> int:
        return len(self.sigma)

    def draw(self, k: int) -> LongParams:
        return LongParams(beta0=self.beta0[k], beta1=self.beta1[k], sigma=float(self.sigma[k]))

    def subsample_indices(self, k: int) -> np.ndarray:
        return mcmc.even_indices(self.n_draws, k)

    def to_json(self) -> dict:
        return encode(self)

    @classmethod
    def from_json(cls, doc: dict) -> "LongitudinalPosterior":
        return decode(cls, doc)


# log-spaced sigma grid of the griddy sampler; each point is the centre of a cell
LOG_SIGMA_GRID = np.linspace(math.log(1e-2), math.log(1e3), 3000)
_LOG_SIGMA_STEP = LOG_SIGMA_GRID[1] - LOG_SIGMA_GRID[0]
END_MASS_TOL = 1e-6  # posterior mass an end cell of the grid may hold


@dataclass(frozen=True)
class _ArmRegression:
    """One arm's weighted regression, diagonalised against its prior.

    With prior sds S and precision L0 = S^-2, the eigendecomposition
    S X'WX S = V diag(d) V' gives, for the basis G = S V, the posterior
    precision X'WX / sigma^2 + L0 = G^-T diag(1 + d / sigma^2) G^-1. So the
    sigma marginal and beta | sigma need no matrix solve per sigma."""

    basis: np.ndarray  # G, (k, k)
    eig: np.ndarray  # d, (k,)
    r_data: np.ndarray  # G' X'Wy, (k,)
    r_prior: np.ndarray  # G' L0 m0, (k,)
    yy: float  # y'Wy

    @classmethod
    def build(cls, x, y, wgt, priors: LongPriors) -> "_ArmRegression":
        design = np.column_stack([np.ones(len(y)), x])
        k = design.shape[1]
        sd = np.array([priors.beta0_sd] + [priors.beta1_sd] * (k - 1))
        mean0 = np.array([priors.beta0_mean] + [priors.beta1_mean] * (k - 1))
        xtwx = design.T @ (wgt[:, None] * design)
        eig, vecs = np.linalg.eigh(sd[:, None] * xtwx * sd[None, :])
        basis = sd[:, None] * vecs
        return cls(
            basis=basis,
            eig=np.clip(eig, 0.0, None),
            r_data=basis.T @ (design.T @ (wgt * y)),
            r_prior=basis.T @ (mean0 / sd**2),
            yy=float(wgt @ y**2),
        )

    def _parts(self, sigma):
        s2 = np.asarray(sigma, dtype=float)[..., None] ** 2
        shrink = s2 / (s2 + self.eig)  # (..., k): (1 + d / sigma^2)^-1
        return shrink, self.r_data / s2 + self.r_prior

    def log_evidence(self, sigma) -> np.ndarray:
        """log of the integral over beta of this arm's likelihood times its
        prior at each sigma, up to a constant and leaving out the likelihood's
        sigma^-sum(W) factor, which ``VisitModel`` adds once for both arms."""
        shrink, r = self._parts(sigma)
        s2 = np.asarray(sigma, dtype=float) ** 2
        return 0.5 * np.sum(np.log(shrink) + r**2 * shrink, axis=-1) - 0.5 * self.yy / s2

    def draw(self, sigma, rng: np.random.Generator) -> np.ndarray:
        """One beta = (intercept, coefficients) draw per sigma; (K, k)."""
        shrink, r = self._parts(sigma)
        z = rng.standard_normal(shrink.shape)
        return (r * shrink + z * np.sqrt(shrink)) @ self.basis.T


@dataclass(frozen=True)
class VisitModel:
    """The weighted per-visit model with the coefficients integrated out:
    the closed-form marginal of sigma and exact beta | sigma draws."""

    arms: tuple[_ArmRegression, _ArmRegression]
    sum_w: float
    sigma_sd: float

    @classmethod
    def build(cls, x, y, arm, wgt, priors: LongPriors) -> "VisitModel":
        arms = tuple(
            _ArmRegression.build(x[arm == w], y[arm == w], wgt[arm == w], priors) for w in (0, 1)
        )
        return cls(arms=arms, sum_w=float(wgt.sum()), sigma_sd=priors.sigma_sd)

    def log_sigma_marginal(self, sigma) -> np.ndarray:
        """log p(sigma | data) up to a constant, for sigma > 0."""
        sigma = np.asarray(sigma, dtype=float)
        lp = -0.5 * (sigma / self.sigma_sd) ** 2 - self.sum_w * np.log(sigma)
        return lp + sum(a.log_evidence(sigma) for a in self.arms)

    def draw_beta(self, sigma, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """beta | sigma for each sigma: intercepts (K, 2), coefficients (K, 2, p)."""
        beta = np.stack([a.draw(sigma, rng) for a in self.arms], axis=1)
        return beta[:, :, 0], beta[:, :, 1:]


def fit_longitudinal(
    data: ObservedDataset,
    t: float,
    weights: np.ndarray,
    priors: LongPriors,
    cfg: mcmc.McmcConfig,
) -> LongitudinalPosterior:
    """Fit the weighted per-visit model; requires positive weight in each arm.

    Griddy sampling: sigma is drawn from its closed-form marginal evaluated
    on ``LOG_SIGMA_GRID`` (inverse CDF, uniform within the drawn cell), then
    beta | sigma exactly. The draws form ``cfg.chains`` independent streams
    of ``cfg.samples``, over which R-hat and ESS are computed. The fit is
    flagged unconverged when diagnostics fail or an end cell of the grid
    holds more than ``END_MASS_TOL`` of the posterior mass, where the grid
    would truncate it.
    """
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(data):
        raise ValueError("weights must align with the dataset")
    cols = data.columns
    rows = weights > 0
    for arm in (0, 1):
        if not np.any(rows & (cols.w == arm)):
            raise LongitudinalFitError(f"arm {arm} has zero total weight at t={t}; cannot fit")
    y = cols.at(t).y[rows]
    if np.isnan(y).any():
        raise ValueError(f"positive weight on a patient with no measurement at t={t}")
    model = VisitModel.build(
        x=cols.x[rows], y=y, arm=cols.w[rows], wgt=weights[rows], priors=priors
    )
    log_dens = model.log_sigma_marginal(np.exp(LOG_SIGMA_GRID)) + LOG_SIGMA_GRID
    mass = np.exp(log_dens - log_dens.max())
    mass /= mass.sum()
    cdf = np.cumsum(mass)

    sigma, beta0, beta1 = [], [], []
    for rng in mcmc.streams(cfg.seed, cfg.chains):
        cell = np.minimum(np.searchsorted(cdf, rng.uniform(size=cfg.samples), side="right"),
                          len(cdf) - 1)
        jitter = rng.uniform(-0.5, 0.5, size=cfg.samples)
        sigma.append(np.exp(LOG_SIGMA_GRID[cell] + _LOG_SIGMA_STEP * jitter))
        b0, b1 = model.draw_beta(sigma[-1], rng)
        beta0.append(b0)
        beta1.append(b1)
    sigma, beta0, beta1 = np.stack(sigma), np.stack(beta0), np.stack(beta1)
    diagnostics, converged = mcmc.stream_diagnostics(
        {"beta0_0": beta0[..., :1], "beta0_1": beta0[..., 1:], "beta1_0": beta1[:, :, 0],
         "beta1_1": beta1[:, :, 1], "sigma": sigma[..., None]},
        cfg,
    )
    return LongitudinalPosterior(
        t=t,
        beta0=beta0.reshape(-1, 2),
        beta1=beta1.reshape(-1, *beta1.shape[2:]),
        sigma=sigma.reshape(-1),
        diagnostics=diagnostics,
        converged=converged and max(mass[0], mass[-1]) <= END_MASS_TOL,
    )
