"""Per-visit-time Bayesian linear model of the longitudinal outcome.

At each visit time t the outcome is modeled as Normal with an arm-specific
affine mean in the baseline covariates and a common residual scale. Each
patient's log-likelihood contribution is weighted by the probability that
the patient belongs to the always-survivor stratum at t: zero for patients
dead or unmeasured at t, and the counterfactual survival probability for
patients observed alive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import mcmc
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
    measured = np.array([p.alive_at(t) and t in p.y_obs for p in data.patients])
    return np.where(measured, s_mis, 0.0)


def weighted_loglik(
    params: LongParams, data: ObservedDataset, weights: np.ndarray, t: float
) -> float:
    """Stratum-weighted Gaussian log likelihood at visit time t.

    Reduces to the ordinary log likelihood when all weights are 1 and is
    linear in the weights.
    """
    if len(weights) != len(data):
        raise ValueError("weights must align with the dataset")
    const = math.log(params.sigma * math.sqrt(2 * math.pi))
    total = 0.0
    for p, w_i in zip(data.patients, weights):
        if w_i == 0.0:
            continue
        if t not in p.y_obs:
            raise ValueError(f"patient {p.id} has positive weight but no value at t={t}")
        resid = p.y_obs[t] - params.mean(p.x, p.w)
        total += w_i * (-const - resid**2 / (2 * params.sigma**2))
    return total


def predict_y_mis(params: LongParams, patient: ObservedPatient, t: float) -> tuple[float, float]:
    """Counterfactual predictive mean and residual scale for one patient."""
    return params.mean(patient.x, 1 - patient.w), params.sigma


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
        return {
            "t": self.t,
            "draws": [
                {
                    "beta0_0": float(self.beta0[k, 0]),
                    "beta0_1": float(self.beta0[k, 1]),
                    "beta1_0": self.beta1[k, 0].tolist(),
                    "beta1_1": self.beta1[k, 1].tolist(),
                    "sigma": float(self.sigma[k]),
                }
                for k in range(self.n_draws)
            ],
            "diagnostics": self.diagnostics,
            "converged": self.converged,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "LongitudinalPosterior":
        draws = doc["draws"]
        beta0 = np.array([[d["beta0_0"], d["beta0_1"]] for d in draws])
        beta1 = np.array([[d["beta1_0"], d["beta1_1"]] for d in draws])
        return cls(
            t=float(doc["t"]),
            beta0=beta0,
            beta1=beta1,
            sigma=np.array([d["sigma"] for d in draws]),
            diagnostics=doc.get("diagnostics", {}),
            converged=bool(doc.get("converged", True)),
        )


def fit_longitudinal(
    data: ObservedDataset,
    t: float,
    weights: np.ndarray,
    priors: LongPriors,
    cfg: mcmc.McmcConfig,
) -> LongitudinalPosterior:
    """Fit the weighted per-visit model; requires positive weight in each arm."""
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(data):
        raise ValueError("weights must align with the dataset")
    rows = [(p, w_i) for p, w_i in zip(data.patients, weights) if w_i > 0]
    for arm in (0, 1):
        if not any(p.w == arm for p, _ in rows):
            raise LongitudinalFitError(
                f"arm {arm} has zero total weight at t={t}; cannot fit"
            )
    y = np.array([p.y_obs[t] for p, _ in rows])
    x = np.array([p.x for p, _ in rows], dtype=float)
    arm = np.array([p.w for p, _ in rows], dtype=int)
    wgt = np.array([w_i for _, w_i in rows])
    p_dim = x.shape[1]
    sum_w = wgt.sum()
    sigma_guess = max(float(np.std(y)), 0.1)

    # scalar blocks per coefficient mix noticeably better here than joint
    # per-arm proposals; the shared scale couples the arms
    rows_by_arm = {w: arm == w for w in (0, 1)}
    x_by_arm = {w: x[rows_by_arm[w]] for w in (0, 1)}
    y_by_arm = {w: y[rows_by_arm[w]] for w in (0, 1)}
    w_by_arm = {w: wgt[rows_by_arm[w]] for w in (0, 1)}

    def log_prior(params: mcmc.ParamDict) -> np.ndarray:
        sig = params["sigma"][:, 0]  # (C,)
        lp = -0.5 * (sig / priors.sigma_sd) ** 2  # half-Normal kernel
        for w in (0, 1):
            b0 = params[f"beta0_{w}"][:, 0]
            b1 = params[f"beta1_{w}"]
            lp = lp - 0.5 * ((b0 - priors.beta0_mean) / priors.beta0_sd) ** 2
            lp = lp + np.sum(
                -0.5 * ((b1 - priors.beta1_mean) / priors.beta1_sd) ** 2, axis=1
            )
        return lp

    def log_likelihood(params: mcmc.ParamDict) -> np.ndarray:
        sig = params["sigma"][:, 0]  # (C,)
        quad = 0.0
        for w in (0, 1):
            mu = params[f"beta0_{w}"].T + x_by_arm[w] @ params[f"beta1_{w}"].T  # (R_w, C)
            resid2 = (y_by_arm[w][:, None] - mu) ** 2
            quad = quad + (w_by_arm[w][:, None] * resid2).sum(axis=0)
        return -sum_w * np.log(sig * math.sqrt(2 * math.pi)) - quad / (2 * sig**2)

    def initial(rng: np.random.Generator, chains: int) -> mcmc.ParamDict:
        return {
            "beta0_0": priors.beta0_mean + rng.normal(0, 2.0, size=(chains, 1)),
            "beta0_1": priors.beta0_mean + rng.normal(0, 2.0, size=(chains, 1)),
            "beta1_0": rng.normal(0, 1.0, size=(chains, p_dim)),
            "beta1_1": rng.normal(0, 1.0, size=(chains, p_dim)),
            "sigma": sigma_guess * np.exp(rng.normal(0, 0.5, size=(chains, 1))),
        }

    model = mcmc.ModelSpec(
        blocks=(
            mcmc.Block("beta0_0", 1),
            mcmc.Block("beta0_1", 1),
            mcmc.Block("beta1_0", p_dim),
            mcmc.Block("beta1_1", p_dim),
            mcmc.Block("sigma", 1, positive=True),
        ),
        log_prior=log_prior,
        log_likelihood=log_likelihood,
        initial=initial,
    )
    result = mcmc.run_chains(model, cfg)
    beta0 = np.stack(
        [result.pooled("beta0_0")[:, 0], result.pooled("beta0_1")[:, 0]], axis=1
    )
    beta1 = np.stack([result.pooled("beta1_0"), result.pooled("beta1_1")], axis=1)
    return LongitudinalPosterior(
        t=t,
        beta0=beta0,
        beta1=beta1,
        sigma=result.pooled("sigma")[:, 0],
        diagnostics=result.diagnostics,
        converged=result.converged,
        accept_rates=result.accept_rates,
    )
