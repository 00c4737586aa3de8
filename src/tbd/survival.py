"""Bayesian piecewise-constant proportional-hazards model, one set of
parameters per arm, fit through the person-interval Poisson expansion.

The hazard for a patient with covariates x under arm w is
``lambda_j(w) * exp(alpha(w) . x)`` on grid segment j. Survival and
restricted-mean integrals have closed forms under piecewise-constant
hazards; both are implemented here and checked against quadrature in the
test suite. Beyond the last cutpoint the final segment rate is extended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammaln

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

    def segment_of(self, t: float) -> int:
        """Index of the segment containing t (t in (tau_{j-1}, tau_j])."""
        cuts = self.cutpoints
        for j in range(self.n_segments):
            if t <= cuts[j + 1]:
                return j
        return self.n_segments - 1


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


@dataclass(frozen=True)
class PersonIntervalTable:
    """Poisson-expansion rows: one per (patient, grid segment at risk)."""

    patient: np.ndarray
    w: np.ndarray
    x: np.ndarray
    segment: np.ndarray
    exposure: np.ndarray
    event: np.ndarray

    def __len__(self) -> int:
        return len(self.exposure)


def poisson_expand(data: ObservedDataset, grid: HazardGrid) -> PersonIntervalTable:
    """Expand observed (t_obs, d_obs) pairs into person-interval rows.

    Each patient contributes one row per segment overlapped before t_obs,
    with exposure equal to the overlap length; the event indicator is 1 only
    on the row of the segment containing an observed death. Total exposure
    equals the sum of t_obs and total events equal the observed death count.
    """
    if grid.upper < data.follow_up:
        raise ValueError(
            f"grid ends at {grid.upper} but follow-up is {data.follow_up}"
        )
    cuts = grid.cutpoints
    pat, w, xs, seg, expo, ev = [], [], [], [], [], []
    for i, p in enumerate(data.patients):
        for j in range(grid.n_segments):
            lo, hi = cuts[j], cuts[j + 1]
            if p.t_obs <= lo:
                break
            overlap = min(p.t_obs, hi) - lo
            pat.append(i)
            w.append(p.w)
            xs.append(p.x)
            seg.append(j)
            expo.append(overlap)
            ev.append(int(p.d_obs == 1 and p.t_obs <= hi))
    p_dim = len(data.patients[0].x) if data.patients else 1
    return PersonIntervalTable(
        patient=np.array(pat, dtype=int),
        w=np.array(w, dtype=int),
        x=np.array(xs, dtype=float).reshape(len(pat), p_dim),
        segment=np.array(seg, dtype=int),
        exposure=np.array(expo, dtype=float),
        event=np.array(ev, dtype=int),
    )


def survival_loglik(params: SurvivalParams, table: PersonIntervalTable) -> float:
    """Poisson log likelihood of the expanded table, up to the d! constant."""
    lam = np.where(table.w == 1, params.lambda1[table.segment], params.lambda0[table.segment])
    lin = np.where(
        table.w == 1, table.x @ np.asarray(params.alpha1), table.x @ np.asarray(params.alpha0)
    )
    mu = lam * np.exp(lin) * table.exposure
    with np.errstate(divide="ignore"):
        terms = np.where(table.event == 1, np.log(mu), 0.0)
    ll = float(np.sum(terms) - np.sum(mu))
    if not math.isfinite(ll):
        raise FitError("non-finite survival log likelihood")
    return ll


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
        """Counterfactual survival probabilities, shape (draws, patients)."""
        idx = np.arange(self.n_draws) if indices is None else np.asarray(indices)
        arm = np.array([1 - p.w for p in data.patients])
        x = np.array([p.x for p in data.patients], dtype=float)
        horizon = np.array(
            [p.t_obs if (p.d_obs == 1 and p.t_obs <= t) else t for p in data.patients]
        )
        overlaps = self.grid.overlaps(horizon)  # (n, J)
        base0 = self.lambda0[idx] @ overlaps.T  # (K, n)
        base1 = self.lambda1[idx] @ overlaps.T
        scale0 = np.exp(self.alpha0[idx] @ x.T)
        scale1 = np.exp(self.alpha1[idx] @ x.T)
        cum = np.where(arm[None, :] == 1, base1 * scale1, base0 * scale0)
        return np.exp(-cum)

    def to_json(self) -> dict:
        return encode(self)

    @classmethod
    def from_json(cls, doc: dict) -> "SurvivalPosterior":
        return decode(cls, doc)


def _arm_stats(table: PersonIntervalTable, w: int, n_segments: int):
    """Sufficient pieces of the arm-w likelihood for vectorized evaluation."""
    sel = table.w == w
    seg = table.segment[sel]
    x = table.x[sel]
    expo = table.exposure[sel]
    d = table.event[sel]
    d_per_seg = np.bincount(seg, weights=d, minlength=n_segments)
    sum_dx = d @ x
    with np.errstate(divide="ignore"):
        sum_d_logexpo = float(np.sum(np.where(d == 1, np.log(expo), 0.0)))
    return seg, x, expo, d_per_seg, sum_dx, sum_d_logexpo


def _fit_one_arm(
    stats, j: int, p_dim: int, priors: SurvivalPriors, cfg: mcmc.McmcConfig
):
    seg, x, expo, d_per_seg, sum_dx, sum_d_logexpo = stats
    a_shape, a_rate = priors.gamma_shape, priors.gamma_rate
    lgam = gammaln(a_shape)

    # Segment rates get scalar blocks: their posterior scales differ by
    # orders of magnitude between sparse and event-rich segments, so each
    # needs its own adapted step size.
    lam_names = [f"lambda_{s}" for s in range(j)]

    def _lam_matrix(params: mcmc.ParamDict) -> np.ndarray:
        return np.concatenate([params[name] for name in lam_names], axis=1)

    def log_prior(params: mcmc.ParamDict) -> np.ndarray:
        lam = _lam_matrix(params)
        lp = np.sum(
            a_shape * math.log(a_rate) - lgam + (a_shape - 1) * np.log(lam) - a_rate * lam,
            axis=1,
        )
        a = params["alpha"]
        return lp + np.sum(
            -0.5 * ((a - priors.alpha_mean) / priors.alpha_sd) ** 2
            - math.log(priors.alpha_sd * math.sqrt(2 * math.pi)),
            axis=1,
        )

    def log_likelihood(params: mcmc.ParamDict) -> np.ndarray:
        lam = _lam_matrix(params)  # (C, J)
        alpha = params["alpha"]  # (C, p)
        lin = x @ alpha.T  # (R, C)
        mu_total = (lam[:, seg].T * np.exp(lin) * expo[:, None]).sum(axis=0)  # (C,)
        return np.log(lam) @ d_per_seg + alpha @ sum_dx + sum_d_logexpo - mu_total

    def initial(rng: np.random.Generator, chains: int) -> mcmc.ParamDict:
        init: mcmc.ParamDict = {
            name: priors.lambda_mean * np.exp(rng.normal(0, 1, size=(chains, 1)))
            for name in lam_names
        }
        init["alpha"] = rng.normal(0, 0.5, size=(chains, p_dim))
        return init

    blocks = tuple(mcmc.Block(name, 1, positive=True) for name in lam_names) + (
        mcmc.Block("alpha", p_dim),
    )
    model = mcmc.ModelSpec(
        blocks=blocks, log_prior=log_prior, log_likelihood=log_likelihood, initial=initial
    )
    result = mcmc.run_chains(model, cfg)
    lam = np.concatenate([result.pooled(name) for name in lam_names], axis=1)
    return lam, result.pooled("alpha"), result


def fit_survival(
    data: ObservedDataset,
    grid: HazardGrid,
    priors: SurvivalPriors,
    cfg: mcmc.McmcConfig,
) -> SurvivalPosterior:
    """Fit the piecewise-exponential model, one independent posterior per arm.

    The arms share no parameters, so separate fits are identical in
    distribution to one joint fit. Returns a flagged (``converged=False``)
    posterior rather than raising when diagnostics fail.
    """
    table = poisson_expand(data, grid)
    j = grid.n_segments
    p_dim = table.x.shape[1]

    out = {}
    diagnostics: dict[str, dict[str, float]] = {}
    accept: dict[str, float] = {}
    converged = True
    for w in (0, 1):
        # distinct, deterministic stream per arm
        arm_cfg = cfg if w == 0 else replace(cfg, seed=cfg.seed + 0x5F3759DF)
        lam, alpha, result = _fit_one_arm(
            _arm_stats(table, w, j), j, p_dim, priors, arm_cfg
        )
        out[w] = (lam, alpha)
        for name, d in result.diagnostics.items():
            diagnostics[name.replace("lambda_", f"lambda{w}_").replace("alpha", f"alpha{w}")] = d
        for name, r in result.accept_rates.items():
            accept[name.replace("lambda_", f"lambda{w}_").replace("alpha", f"alpha{w}")] = r
        converged = converged and result.converged
    return SurvivalPosterior(
        grid=grid,
        lambda0=out[0][0],
        lambda1=out[1][0],
        alpha0=out[0][1],
        alpha1=out[1][1],
        diagnostics=diagnostics,
        converged=converged,
        accept_rates=accept,
    )
