"""Draw streams, convergence diagnostics, and a generic block-adaptive
random-walk Metropolis-within-Gibbs sampler.

The package's two models are fitted by their own exact or near-exact
samplers (``survival`` and ``longitudinal``); they draw ``chains``
independent streams from ``streams`` and report split R-hat and ESS over
them through ``stream_diagnostics``, as ``run_chains`` does for its chains.
``rhat`` and ``ess`` are array code over a stack (..., chains, draws), so
``stream_diagnostics`` checks all of a fit's coordinates in one call each.

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
    samples: int = 1000
    seed: int = 0
    rhat_threshold: float = 1.05
    min_ess: float = 400.0

    def __post_init__(self) -> None:
        if self.chains < 2:
            raise ValueError("at least 2 chains are required for diagnostics")
        if self.samples <= 0:
            raise ValueError("samples must be > 0")


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
    r, e = np.array([(d["rhat"], d["ess"]) for d in diagnostics.values()]).reshape(-1, 2).T
    return float(np.fmax.reduce(r, initial=np.nan)), float(np.fmin.reduce(e, initial=np.nan))


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
    samples, size) array), keyed like "alpha0[0]", from one ``rhat`` and one
    ``ess`` call on a (coordinates, chains, samples) stack, and whether every
    value passes ``cfg``'s thresholds; a NaN compares False, so it passes."""
    names = [f"{name}[{j}]" for name, arr in draws.items() for j in range(arr.shape[-1])]
    stack = np.concatenate([np.moveaxis(arr, -1, 0) for arr in draws.values()])
    r, e = rhat(stack), ess(stack)
    diagnostics = {name: {"rhat": float(a), "ess": float(b)} for name, a, b in zip(names, r, e)}
    return diagnostics, not (np.any(r > cfg.rhat_threshold) or np.any(e < cfg.min_ess))


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


def run_chains(model: ModelSpec, cfg: McmcConfig, *, warmup: int = 1000,
               target_accept: float | None = None) -> McmcResult:
    """Sample the posterior with adaptive random-walk Metropolis-within-Gibbs:
    ``warmup`` adapting iterations, then ``cfg.samples`` kept ones per chain.
    ``target_accept`` None means 0.44 for scalar blocks, 0.234 otherwise."""
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    if target_accept is not None and not (0.0 < target_accept < 1.0):
        raise ValueError("target_accept must lie in (0, 1)")
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
    target = {b.name: target_accept or (0.44 if b.size == 1 else 0.234) for b in model.blocks}
    accepted = {b.name: 0 for b in model.blocks}
    total = warmup + cfg.samples

    out = {b.name: np.empty((chains, cfg.samples, b.size)) for b in model.blocks}

    for it in range(total):
        adapt = it < warmup
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
            k = it - warmup
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
    """Split each chain in half, (..., chains, draws) -> (..., 2 * chains, draws // 2),
    C-contiguous, so the sums over draws add as for one (chains, draws) array."""
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim < 2:
        raise ValueError("expected a (..., chains, draws) array")
    m, n = x.shape[-2:]
    if m < 2 or n < 4:
        raise ValueError("need at least 2 chains of at least 4 draws")
    half = n // 2
    return np.concatenate([x[..., :half], x[..., n - half:]], axis=-2)


def rhat(x: np.ndarray):
    """Split-chain potential scale reduction factor: a float for a (chains,
    draws) array, an array for a stack (..., chains, draws). NaN for
    zero-variance chains, where the statistic is not applicable."""
    s = _split_chains(x)
    n = s.shape[-1]
    w = s.var(axis=-1, ddof=1).mean(axis=-1)
    var_plus = (n - 1) / n * w + s.mean(axis=-1).var(axis=-1, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(w == 0, np.nan, np.sqrt(var_plus / w))
    return float(r) if r.ndim == 0 else r


def ess(x: np.ndarray):
    """Effective sample size from the split chains' FFT autocovariances, with
    Geyer's initial monotone positive-sequence truncation; a float or an
    array, as for ``rhat``. NaN for zero-variance chains; never more than
    the number of draws."""
    s = _split_chains(x)
    m, n = s.shape[-2:]
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(s - s.mean(axis=-1, keepdims=True), size)
    f *= np.conjugate(f)  # in place: one fewer (coordinates, chains, size) array
    acov = np.fft.irfft(f, size)[..., :n] / n
    w = (acov[..., 0] * n / (n - 1)).mean(axis=-1)
    var_plus = (n - 1) / n * w + s.mean(axis=-1).var(axis=-1, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = 1.0 - (w[..., None] - acov.mean(axis=-2)) / var_plus[..., None]
        # Geyer: the lag pairs (1, 2), (3, 4), ... up to the first negative one
        # (a NaN pair does not end the prefix), each capped by the pairs before
        pairs = rho[..., 1:n - 1:2] + rho[..., 2:n:2]
        kept = np.logical_and.accumulate(~(pairs < 0), axis=-1)
        capped = np.where(kept, np.minimum.accumulate(pairs, axis=-1), 0.0)
        # cumsum adds in lag order, as a running sum does
        tau = np.cumsum(capped, axis=-1)[..., -1] if capped.shape[-1] else 0.0
        e = np.where(w == 0, np.nan, np.minimum(m * n / (1.0 + 2.0 * tau), m * n))
    return float(e) if e.ndim == 0 else e
