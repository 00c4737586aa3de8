"""Draw streams, convergence diagnostics, and a generic block-adaptive
random-walk Metropolis-within-Gibbs sampler.

The package's two models are fitted by their own exact or near-exact
samplers (``survival`` and ``longitudinal``); they draw ``chains``
independent streams from ``streams`` and report split R-hat and ESS over
them through ``stream_diagnostics``, as ``run_chains`` does for its chains.

``run_chains`` remains the general tool for any low-dimensional target
given as a ``ModelSpec``; correctness is enforced by conjugate-posterior
oracles in the test suite. Positive parameters are sampled on the log scale
with the Jacobian correction, step sizes adapt toward a target acceptance
rate during warmup only (frozen afterwards, which preserves detailed
balance of the sampling phase), and all chains advance in lock-step through
one seeded generator so runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

ParamDict = dict[str, np.ndarray]


class McmcError(RuntimeError):
    pass


@dataclass(frozen=True)
class Block:
    """One update block: a named group of scalars with a common support."""

    name: str
    size: int
    positive: bool = False


@dataclass(frozen=True)
class ModelSpec:
    """Target density split into blocks, prior, and likelihood.

    ``log_prior`` and ``log_likelihood`` map a dict of natural-scale
    parameter arrays, each of shape (chains, block size), to a (chains,)
    vector. ``initial`` draws overdispersed starting points on the natural
    scale.
    """

    blocks: tuple[Block, ...]
    log_prior: Callable[[ParamDict], np.ndarray]
    log_likelihood: Callable[[ParamDict], np.ndarray]
    initial: Callable[[np.random.Generator, int], ParamDict]


@dataclass(frozen=True)
class McmcConfig:
    chains: int = 4
    warmup: int = 1000
    samples: int = 1000
    seed: int = 0
    target_accept: float | None = None  # None: 0.44 for scalar blocks, 0.234 otherwise
    rhat_threshold: float = 1.05
    min_ess: float = 400.0

    def __post_init__(self) -> None:
        if self.chains < 2:
            raise ValueError("at least 2 chains are required for diagnostics")
        if self.warmup < 0 or self.samples <= 0:
            raise ValueError("warmup must be >= 0 and samples > 0")
        if self.target_accept is not None and not (0.0 < self.target_accept < 1.0):
            raise ValueError("target_accept must lie in (0, 1)")


@dataclass
class McmcResult:
    """Posterior draws plus convergence diagnostics.

    ``draws`` maps block name to a (chains, samples, size) array on the
    natural scale. ``diagnostics`` maps a flat coordinate name like
    "lambda0[2]" to {"rhat": ..., "ess": ...}; NaN marks a degenerate
    (zero-variance) coordinate where the diagnostic is not applicable.
    """

    draws: dict[str, np.ndarray]
    diagnostics: dict[str, dict[str, float]]
    accept_rates: dict[str, float]
    converged: bool
    config: McmcConfig = field(repr=False)

    def pooled(self, name: str) -> np.ndarray:
        """All post-warmup draws of one block, shape (chains * samples, size)."""
        d = self.draws[name]
        return d.reshape(-1, d.shape[-1])

    @property
    def n_draws(self) -> int:
        first = next(iter(self.draws.values()))
        return first.shape[0] * first.shape[1]


def diagnostic_extremes(diagnostics: dict[str, dict[str, float]]) -> tuple[float, float]:
    """Worst R-hat and smallest ESS over the coordinates where each is
    defined; NaN when no coordinate defines it."""
    rhats = [d["rhat"] for d in diagnostics.values() if not math.isnan(d["rhat"])]
    esss = [d["ess"] for d in diagnostics.values() if not math.isnan(d["ess"])]
    return max(rhats, default=math.nan), min(esss, default=math.nan)


def even_indices(n: int, k: int) -> np.ndarray:
    """k evenly spaced indices into n pooled draws, for pairing posteriors."""
    if k > n:
        raise ValueError(f"requested {k} draws but only {n} available")
    return np.linspace(0, n - 1, k).round().astype(int)


def streams(seed, chains: int) -> list[np.random.Generator]:
    """``chains`` independent generators spawned from ``seed`` (an int or a
    ``SeedSequence``), one per draw stream."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seq.spawn(chains)]


def stream_diagnostics(
    draws: dict[str, np.ndarray], cfg: McmcConfig
) -> tuple[dict[str, dict[str, float]], bool]:
    """Split R-hat and ESS of every coordinate of ``draws`` (name -> (chains,
    samples, size) array), keyed like "alpha0[0]", and whether every defined
    value passes ``cfg``'s thresholds."""
    diagnostics: dict[str, dict[str, float]] = {}
    ok = True
    for name, arr in draws.items():
        for j in range(arr.shape[-1]):
            r = rhat(arr[:, :, j])
            e = ess(arr[:, :, j])
            diagnostics[f"{name}[{j}]"] = {"rhat": r, "ess": e}
            if not math.isnan(r) and r > cfg.rhat_threshold:
                ok = False
            if not math.isnan(e) and e < cfg.min_ess:
                ok = False
    return diagnostics, ok


def _to_sampling_scale(theta: np.ndarray, block: Block) -> np.ndarray:
    return np.log(theta) if block.positive else np.array(theta, dtype=float)


def _to_natural_scale(z: np.ndarray, block: Block) -> np.ndarray:
    return np.exp(z) if block.positive else z


def _log_post(model: ModelSpec, natural: ParamDict, sampling: ParamDict) -> np.ndarray:
    lp = model.log_prior(natural) + model.log_likelihood(natural)
    for b in model.blocks:
        if b.positive:  # Jacobian of theta = exp(z)
            lp = lp + sampling[b.name].sum(axis=1)
    return lp


def run_chains(model: ModelSpec, cfg: McmcConfig) -> McmcResult:
    """Sample the posterior with adaptive random-walk Metropolis-within-Gibbs."""
    rng = np.random.default_rng(cfg.seed)
    chains = cfg.chains

    natural = {b.name: np.atleast_2d(np.asarray(model.initial(rng, chains)[b.name], dtype=float))
               for b in model.blocks}
    for b in model.blocks:
        theta = natural[b.name]
        if theta.shape != (chains, b.size):
            raise McmcError(f"initial value for block {b.name!r} has shape {theta.shape}, "
                            f"expected {(chains, b.size)}")
        if b.positive and np.any(theta <= 0):
            raise McmcError(f"block {b.name!r} initialized outside its positive support")
    sampling = {b.name: _to_sampling_scale(natural[b.name], b) for b in model.blocks}

    logp = _log_post(model, natural, sampling)
    if not np.all(np.isfinite(logp)):
        bad = ", ".join(b.name for b in model.blocks)
        raise McmcError(f"non-finite log density at initialization (blocks: {bad})")

    # Per-(block, chain) log step sizes, Robbins-Monro adapted during warmup.
    log_step = {b.name: np.full(chains, math.log(0.5)) for b in model.blocks}
    target = {
        b.name: cfg.target_accept
        if cfg.target_accept is not None
        else (0.44 if b.size == 1 else 0.234)
        for b in model.blocks
    }
    accepted = {b.name: 0 for b in model.blocks}
    total = cfg.warmup + cfg.samples

    out = {b.name: np.empty((chains, cfg.samples, b.size)) for b in model.blocks}

    for it in range(total):
        adapt = it < cfg.warmup
        for b in model.blocks:
            z = sampling[b.name]
            step = np.exp(log_step[b.name])[:, None]
            z_prop = z + step * rng.standard_normal((chains, b.size))
            theta_prop = _to_natural_scale(z_prop, b)
            nat_prop = dict(natural, **{b.name: theta_prop})
            samp_prop = dict(sampling, **{b.name: z_prop})
            logp_prop = _log_post(model, nat_prop, samp_prop)
            delta = logp_prop - logp
            with np.errstate(over="ignore"):
                acc_prob = np.minimum(1.0, np.exp(np.where(np.isfinite(delta), delta, -np.inf)))
            accept = rng.uniform(size=chains) < acc_prob
            if np.any(accept):
                sampling[b.name] = np.where(accept[:, None], z_prop, z)
                natural[b.name] = _to_natural_scale(sampling[b.name], b)
                logp = np.where(accept, logp_prop, logp)
            if adapt:
                gain = min(0.25, (it + 1.0) ** -0.6)
                log_step[b.name] = log_step[b.name] + gain * (acc_prob - target[b.name])
            else:
                accepted[b.name] += int(accept.sum())
        if not adapt:
            k = it - cfg.warmup
            for b in model.blocks:
                out[b.name][:, k, :] = natural[b.name]

    diagnostics, ok = stream_diagnostics(out, cfg)
    accept_rates = {
        name: count / (cfg.samples * chains) for name, count in accepted.items()
    }
    return McmcResult(
        draws=out,
        diagnostics=diagnostics,
        accept_rates=accept_rates,
        converged=ok,
        config=cfg,
    )


# --- diagnostics -------------------------------------------------------------


def _split_chains(x: np.ndarray) -> np.ndarray:
    """Split each chain in half, (chains, draws) -> (2 * chains, draws // 2)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a (chains, draws) array")
    m, n = x.shape
    if m < 2 or n < 4:
        raise ValueError("need at least 2 chains of at least 4 draws")
    half = n // 2
    return np.concatenate([x[:, :half], x[:, n - half:]], axis=0)


def rhat(x: np.ndarray) -> float:
    """Split-chain potential scale reduction factor.

    Returns NaN for degenerate (zero-variance) chains, where the statistic
    is not applicable.
    """
    s = _split_chains(x)
    m, n = s.shape
    chain_means = s.mean(axis=1)
    w = s.var(axis=1, ddof=1).mean()
    b_over_n = chain_means.var(ddof=1)
    if w == 0:
        return float("nan")
    var_plus = (n - 1) / n * w + b_over_n
    return float(np.sqrt(var_plus / w))


def _autocovariance(y: np.ndarray) -> np.ndarray:
    """Biased autocovariance of one chain via FFT, lags 0..n-1."""
    n = len(y)
    yc = y - y.mean()
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(yc, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[:n].real
    return acov / n


def ess(x: np.ndarray) -> float:
    """Effective sample size from combined-chain autocorrelations.

    Uses Geyer's initial monotone positive-sequence truncation on the
    split chains. Returns NaN for zero-variance chains; the result never
    exceeds the total number of draws.
    """
    s = _split_chains(x)
    m, n = s.shape
    acov = np.array([_autocovariance(s[i]) for i in range(m)])
    chain_var = acov[:, 0] * n / (n - 1)
    w = chain_var.mean()
    if w == 0:
        return float("nan")
    var_plus = (n - 1) / n * w + s.mean(axis=1).var(ddof=1)
    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Geyer: sum consecutive lag pairs while positive, enforce monotone decay.
    tau = 0.0
    prev_pair = float("inf")
    k = 1
    while k + 1 < n:
        pair = rho[k] + rho[k + 1]
        if pair < 0:
            break
        pair = min(pair, prev_pair)
        tau += pair
        prev_pair = pair
        k += 2
    ess_val = m * n / (1.0 + 2.0 * tau)
    return float(min(ess_val, m * n))
