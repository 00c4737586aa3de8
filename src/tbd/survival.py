"""Bayesian piecewise-constant proportional-hazards model, one set of
parameters per arm. Its likelihood depends on the data only through each
patient's exposure in each hazard segment and each segment's death count.

The hazard for a patient with covariates x under arm w is
``lambda_j(w) * exp(alpha(w) . x)`` on grid segment j. Survival and
restricted-mean integrals have closed forms under piecewise-constant
hazards. Both are evaluated under each patient's unassigned arm by one
traversal of the posterior draws (``s_mis_matrix``, ``rmst_matrix``) and
checked against quadrature in the test suite. The traversal takes tiles of
patients and within a tile blocks of draws, so each (block x tile) array
stays in cache and each matrix product is too small to wake a second BLAS
thread. No kernel builds an array with a segment axis: the survival mean
serves every visit time from one traversal, computing each block's
covariate scales once, and evaluates only the patients alive at each time,
a prefix of each tile when the tiles are cut in death order; the restricted
mean takes the segments in order, keeping one running total of their terms
and one running cumulative hazard per block, shared by every visit.
Beyond the last cutpoint the final segment rate is extended.

The posterior is sampled collapsed: with the Gamma-prior segment rates
integrated out, alpha has a concave log marginal, sampled by independence
Metropolis-Hastings from a multivariate t at its mode; the rates are then
drawn exactly given alpha. Every proposal's segment exposures are computed
in chunks of proposals, each matrix product within ``BLAS_ONE_THREAD``
multiply-adds, so OpenBLAS runs it on one thread: the draws have the same
bits on any number of cores, and no idle BLAS thread spins on a second one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mcmc
from .codec import decode, encode
from .science import ObservedDataset


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


# --- posterior ---------------------------------------------------------------

S_MIS_BLOCK = 256  # posterior draws per block of the counterfactual kernels
# Patients per tile, at most: a (block x tile) product, exp and column sum
# stays in L2 cache. On grids of more than 8 segments ``tile_width`` takes
# narrower tiles, so the product stays within ``BLAS_ONE_THREAD``.
S_MIS_TILE = 128
# Multiply-adds (M * N * K) of the largest matrix product that OpenBLAS runs
# on one thread whatever the core count: its default SMP_THRESHOLD_MIN times
# GEMM_MULTITHREAD_THRESHOLD. A larger product may wake a second thread,
# which rounds it differently and then spins between products, taking a
# core; so ``_exposures`` takes its proposals in chunks of this size.
BLAS_ONE_THREAD = 2**18


def tile_width(j: int, p: int) -> int:
    """Patients per tile of the counterfactual kernels, at most, on a grid
    of ``j`` segments with ``p`` covariates: ``S_MIS_TILE``, narrowed so
    that a block's products, (draws x J) @ (J x tile) and (draws x p) @
    (p x tile), stay within ``BLAS_ONE_THREAD``: 128 up to 8 segments, 68
    at 15 and 32 at 32. Never below 2, so a tile holds one patient only
    when its arm does (``_unassigned_tiles``)."""
    return max(2, min(S_MIS_TILE, BLAS_ONE_THREAD // (S_MIS_BLOCK * max(j, p))))


def draw_blocks(k: int):
    """Slices of ``S_MIS_BLOCK`` draws covering k draws, starting on its
    multiples. The counterfactual kernels split their draws there, and
    OpenBLAS rounds a product over other row splits differently, so a
    caller that walks its draws by these slices gets, in each block, the
    bits of one kernel call over all k draws."""
    return (slice(start, start + S_MIS_BLOCK) for start in range(0, k, S_MIS_BLOCK))


def _scaled_blocks(blocks, x_t: np.ndarray):
    """Each of ``blocks`` (rows, segment rates, covariate effects) with
    the covariate scales exp(alpha . x) of the columns of ``x_t`` in place
    of its effects, computed block by block."""
    for rows, lam, alpha in blocks:
        yield rows, lam, np.exp(alpha @ x_t)


def _rmst_batch(lam: np.ndarray, scale: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """Restricted-mean integral at several times, in closed form.

    lam (K, J) segment rates, scale (K, n) covariate multipliers, overlaps
    (T, J) each time's segment lengths inside [0, t], rows of
    ``HazardGrid.overlaps``: each time spans a run of segments from the
    first, all at full length but its last; returns (T, K, n).
    Each segment adds exp(-H(a)) * (1 - exp(-r * dt)) / r, with r the
    segment hazard and H(a) the cumulative hazard at its start, and its full
    length where r = 0. The segments are taken in order on (K, n) arrays,
    with one running total of the full-length terms and one running H,
    shared by every time: a time reads the total through the segments it
    spans in full plus its own last term, so its terms are added in segment
    order. A time of 0 reads 0; a segment past every time is not evaluated.
    """
    out = np.zeros((len(overlaps), *scale.shape))
    spans = np.count_nonzero(overlaps > 0, axis=1)  # segments each time reaches into
    # over the segments before j: the sum of full terms, and H; every term
    # is >= +0.0, so 0.0 + piece and exp(-0.0) * piece are piece, bit for bit
    total = hazard = 0.0
    for j in range(spans.max(initial=0)):
        r = lam[:, j, None] * scale
        carry = total, hazard
        for dt in np.unique(overlaps[spans > j, j]).tolist():
            seg_haz = r * dt
            # -(expm1(-h) / r), in one buffer: (-a) / b is -(a / b) exactly
            piece = np.negative(seg_haz)
            np.expm1(piece, out=piece)
            with np.errstate(invalid="ignore", divide="ignore"):
                piece /= r
            np.negative(piece, out=piece)
            piece[~(r > 0)] = dt
            piece *= np.exp(-hazard)
            at = overlaps[:, j] == dt
            out[at & (spans == j + 1)] = through = total + piece
            if (spans[at] > j + 1).any():  # the full length, which later times span
                carry = through, hazard + seg_haz
        total, hazard = carry
    return out


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

    def subsample_indices(self, k: int) -> np.ndarray:
        """Evenly spaced draw indices for pairing with another posterior."""
        return mcmc.even_indices(self.n_draws, k)

    def _unassigned_tiles(self, data: ObservedDataset, idx: np.ndarray, by_death: bool = False):
        """The counterfactual hazards, tile by tile of the patients whose
        unassigned arm it is, and within a tile ``S_MIS_BLOCK`` draws of
        ``idx`` at a time. Yields a tile's patients (``sel``) with an
        iterator over its blocks: each block's rows within ``idx``, its
        segment rates (B, J) and each patient's covariate scale
        exp(alpha . x) (B, len(sel)).

        An arm's patients are taken in index order, or with ``by_death`` in
        death order: censored patients first, then deaths, latest first,
        ties in index order, so the patients alive at any time are a prefix
        of each tile. (Scattering a tile into a (draws x patients) array
        runs faster in index order.) The arm is split into tiles of equal
        size, up to one, of at most ``tile_width``, so no tile holds a
        single patient unless the arm does: a one-column product and column
        sum take other code paths (matrix-vector product, pairwise sum) than
        a wider one. The values keep the bits of one product over the whole
        arm wherever BLAS computes a column of a wide product as it does in
        a narrow one, whatever the column's neighbours; OpenBLAS rounds the
        last (size mod 8) columns of a product over more than 192 patients
        differently, by a few ulp after the exponential."""
        order = (np.argsort(np.where(data.d_obs == 1, -data.t_obs, -np.inf), kind="stable")
                 if by_death else np.arange(len(data)))
        width = tile_width(self.grid.n_segments, data.x.shape[1])
        for arm, lam, alpha in ((0, self.lambda0, self.alpha0), (1, self.lambda1, self.alpha1)):
            sel_arm = order[data.w[order] != arm]
            blocks = [(rows, lam[idx[rows]], alpha[idx[rows]]) for rows in draw_blocks(len(idx))]
            for sel in np.array_split(sel_arm, max(1, -(-len(sel_arm) // width))):
                yield sel, _scaled_blocks(blocks, data.x[sel].T)

    def s_mis_matrix(self, data: ObservedDataset, t, indices=None) -> np.ndarray:
        """Counterfactual survival probabilities under each patient's unassigned arm.

        With ``indices``, one row per listed draw: shape (len(indices),
        patients), at t for patients alive at t and at the death time for
        the others. With ``indices=None``, the mean over every posterior
        draw: shape (patients,), the always-survivor weights' input, summed
        block by block, so it builds no temporary of shape (draws,
        patients). The mean is evaluated only for the patients alive at t,
        a prefix of each tile in death order, and is NaN for the others. A
        sequence of times ``t`` adds a leading axis of its length, and each
        block's covariate scales exp(alpha . x) then serve all the times:
        ``fit_posteriors`` takes every visit's weights from one call. Each
        time's result has the bits of a call at that time alone, and each
        value the bits it has when every patient is evaluated.
        """
        idx = np.arange(self.n_draws) if indices is None else np.asarray(indices)
        times = np.atleast_1d(np.asarray(t, dtype=float))[:, None]  # (T, 1)
        dead = (data.d_obs == 1) & (data.t_obs <= times)  # (T, n)
        overlaps = self.grid.overlaps(np.where(dead, data.t_obs, times))  # (T, n, J)
        if indices is None:
            out = np.zeros((len(times), len(data)))
        else:
            out = np.empty((len(times), len(idx), len(data)))
        for sel, blocks in self._unassigned_tiles(data, idx, by_death=indices is None):
            if indices is None:
                n_alive = np.count_nonzero(~dead[:, sel], axis=1).tolist()
            else:
                n_alive = [len(sel)] * len(times)
            # each time's columns: every patient for rows of draws, the alive
            # prefix for the mean, widened to two where it is one, since
            # numpy sums a one-column array pairwise and a wider one row by row
            terms = [(res, c, ov[sel[:max(c, min(2, len(sel)))]].T)
                     for res, c, ov in zip(out, n_alive, overlaps) if c]
            for rows, lam, scale in blocks:
                neg_scale = -scale  # -(a * b) is a * -b, bit for bit
                for res, c, ov_t in terms:
                    s = lam @ ov_t
                    s *= neg_scale[:, :ov_t.shape[1]]
                    np.exp(s, out=s)
                    if indices is None:
                        res[sel[:c]] += s.sum(axis=0)[:c]
                    else:
                        res[rows, sel] = s
        if indices is None:
            out /= len(idx)
            out[dead] = np.nan
        return out if np.ndim(t) else out[0]

    def rmst_matrix(self, data: ObservedDataset, t, indices) -> np.ndarray:
        """Restricted-mean survival time to t under each patient's unassigned
        arm, one row per listed draw: shape (len(indices), patients). A
        sequence of times ``t`` adds a leading axis of its length, and each
        block's running total over the segments then serves all the times
        (``_rmst_batch``), each time's terms added in segment order; each
        time's result has the bits of a call at that time alone."""
        idx = np.asarray(indices)
        overlaps = self.grid.overlaps(np.atleast_1d(np.asarray(t, dtype=float)))  # (T, J)
        out = np.empty((len(overlaps), len(idx), len(data)))
        for sel, blocks in self._unassigned_tiles(data, idx):
            for rows, lam, scale in blocks:
                out[:, rows, sel] = _rmst_batch(lam, scale, overlaps)
        return out if np.ndim(t) else out[0]

    def assigned_survival(self, data: ObservedDataset, months) -> np.ndarray:
        """Plug-in survival of each patient under the assigned arm at each of
        ``months``, shape (patients, len(months)): the posterior-mean segment
        rates and covariate effects put into the hazard model. This is the
        observed-arm curve that the integrated Brier score and the
        cumulative/dynamic AUC score."""
        overlaps = self.grid.overlaps(months)
        base = np.stack([overlaps @ self.lambda0.mean(axis=0), overlaps @ self.lambda1.mean(axis=0)])
        scale = np.exp(np.where(data.w == 1, data.x @ self.alpha1.mean(axis=0),
                                data.x @ self.alpha0.mean(axis=0)))
        return np.exp(-base[data.w] * scale[:, None])

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
    sel = data.w == w
    x, t_obs, died = data.x[sel], data.t_obs[sel], data.d_obs[sel] == 1
    events = np.bincount(grid.segment_of(t_obs[died]), minlength=grid.n_segments)
    return _Arm(x=x, overlap=grid.overlaps(t_obs), events=events, sum_dx=x[died].sum(axis=0))


def _exposures(arm: _Arm, alpha: np.ndarray) -> np.ndarray:
    """E_j(alpha) = sum_i overlap_ij exp(alpha . x_i) for each row of
    ``alpha`` (K, p); shape (K, J).

    The rows of ``alpha`` are taken in chunks small enough that each of the
    two products, (rows x p) @ (p x patients) and (rows x patients) @
    (patients x J), stays within ``BLAS_ONE_THREAD``: so the bits do not
    depend on the core count, and no BLAS thread is left spinning. In arms
    of up to 200 patients the chunks round as one product over every
    proposal on one thread does; in arms of 1000, they differ from it by a
    few ulp (OpenBLAS 0.3.31)."""
    n, j = arm.overlap.shape
    rows = max(1, BLAS_ONE_THREAD // max(1, n * max(j, arm.x.shape[1])))
    out = np.empty((len(alpha), j))
    for start in range(0, len(alpha), rows):
        e = alpha[start:start + rows] @ arm.x.T
        np.exp(e, out=e)
        np.matmul(e, arm.overlap, out=out[start:start + rows])
    return out


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
        # as Python floats: the loop's comparisons and differences are the
        # same IEEE operations, without a numpy scalar per index
        log_w = (_log_marginal(arm, priors, props, expo) - log_q).tolist()
        log_u = np.log(rng.uniform(size=samples)).tolist()
        state, cur = [], 0
        for k, u in enumerate(log_u):
            if u < log_w[k + 1] - log_w[cur]:
                cur = k + 1
                accepted += 1
            state.append(cur)
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
