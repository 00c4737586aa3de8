"""The per-patient scalar path: one posterior draw, one patient at a time.

These functions state the definitions that the package evaluates as array
code: over many draws (``SurvivalPosterior.s_mis_matrix`` and
``rmst_matrix``, ``estimators.estimand_draws``) and over all patients of a
science table (``science.composite_metric``, ``simulate.true_estimands``,
``metrics.mae_reconstruction``). The tests use them as the reference for
that array code and, with quadrature and enumeration, as oracles of the
acceptance criteria 2, 4 and 5.

A science table is columns; ``PatientTruth`` is its per-patient record
(``science_table`` and ``records`` go from one to the other). An observed
dataset is columns too; ``ObservedRecord`` is its per-patient record
(``observed_dataset`` and ``patients`` go from one to the other). The
simulator, the two files and ``observe`` one record at a time
(``simulate_records``, ``file_doc``, ``observed_records``) are the reference
that the columns are checked against bit for bit (``assert_same_columns``).

It also keeps the counterfactual-survival traversal without patient tiles
(``untiled_s_mis_matrix``, ``untiled_rmst_matrix``), the reference that the
tiled kernels are compared with bit for bit, and the convergence diagnostics
one coordinate and one chain at a time (``rhat``, ``ess``,
``stream_diagnostics``), the reference for ``tbd.mcmc``'s stacked ones. The
mass median over whole rows, the atoms at -inf and +inf among the others
(``full_row_mass_median``), is the reference for ``science.mass_median``,
which takes only the finite atoms' values. A posterior summary by
``np.percentile`` (``percentile_summary``) is the reference for
``estimators.summaries_of``, the package's one quantile path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtr

from tbd import science
from tbd.codec import encode
from tbd.estimators import EstimandSummary
from tbd.longitudinal import LongitudinalPosterior
from tbd.mcmc import McmcConfig
from tbd.science import InvariantError, ObservedDataset, ObservedPatient, ScienceTable
from tbd.simulate import ScenarioError, ScenarioParams, TruthRecord, weibull_quantile
from tbd.survival import S_MIS_BLOCK, HazardGrid, SurvivalPosterior, _rmst_batch

_MASS_TOL = 1e-12


# --- the science table as per-patient records -----------------------------------


@dataclass(frozen=True)
class PatientTruth:
    """One row of a science table as a record: both arms' potential outcomes.

    ``y0``/``y1`` map visit time to the change-from-baseline score and carry
    entries only while the patient is alive under that arm. The record
    checks nothing; ``ScienceTable`` checks its columns.
    """

    id: int
    x: tuple[float, ...]
    w: int
    y0: dict[float, float]
    y1: dict[float, float]
    t0: float
    t1: float

    def death_time(self, arm: int) -> float:
        return self.t1 if arm == 1 else self.t0

    def trajectory(self, arm: int) -> dict[float, float]:
        return self.y1 if arm == 1 else self.y0


def science_table(records, follow_up: float, visit_times) -> ScienceTable:
    """The columns of ``records`` in their order; a score a record lacks is NaN."""
    visit_times = tuple(visit_times)

    def scores(arm):
        return [[p.trajectory(arm).get(v, math.nan) for v in visit_times] for p in records]

    return ScienceTable(x=[p.x for p in records], w=[p.w for p in records],
                        t0=[p.t0 for p in records], t1=[p.t1 for p in records],
                        y0=scores(0), y1=scores(1), follow_up=follow_up, visit_times=visit_times)


def records(table: ScienceTable) -> tuple[PatientTruth, ...]:
    """The rows of ``table`` as records, ids the row indices, each arm's
    finite scores by visit time."""
    def scores(row):
        return {v: y for v, y in zip(table.visit_times, row.tolist()) if not math.isnan(y)}

    return tuple(
        PatientTruth(id=i, x=tuple(table.x[i].tolist()), w=int(table.w[i]), y0=scores(table.y0[i]),
                     y1=scores(table.y1[i]), t0=float(table.t0[i]), t1=float(table.t1[i]))
        for i in range(len(table))
    )


def simulate_records(params: ScenarioParams, seed) -> tuple[PatientTruth, ...]:
    """``simulate.simulate_science_table``'s draws, one record built per
    patient: the reference for the columns it builds."""
    rng = np.random.default_rng(seed)
    n = params.n
    x = rng.standard_normal(n)
    u_cov = rng.standard_normal(n) if params.uses_unmeasured else np.zeros(n)
    eps = rng.normal(0.0, params.sigma, size=n)
    u_surv = rng.uniform(size=n)
    w = np.zeros(n, dtype=int)
    w[: n // 2] = 1
    w = rng.permutation(w)
    slope0, slope1 = params.slopes(x, u_cov)
    scale0, scale1 = params.scales(x, u_cov)
    if np.any(scale0 <= 0) or np.any(scale1 <= 0):
        raise ScenarioError(f"scenario {params.name!r}: non-positive Weibull scale")
    t0 = weibull_quantile(u_surv, scale0, params.rho)
    t1 = weibull_quantile(u_surv, scale1, params.rho)
    visits = params.visit_times
    return tuple(
        PatientTruth(id=i, x=(float(x[i]),), w=int(w[i]), t0=float(t0[i]), t1=float(t1[i]),
                     y0={v: slope0[i] * v + eps[i] for v in visits if v < t0[i]},
                     y1={v: slope1[i] * v + eps[i] for v in visits if v < t1[i]})
        for i in range(n)
    )


def file_doc(records, follow_up: float, visit_times) -> dict:
    """The ``science.json`` or ``observed.json`` document of ``records``:
    each record through ``codec.encode``, the follow-up as
    ``follow_up_months``."""
    return encode({"patients": tuple(records), "follow_up_months": follow_up,
                   "visit_times": tuple(visit_times)})


# --- the observed dataset as per-patient records --------------------------------


class ObservedRecord(ObservedPatient):
    """One row of an observed dataset as a record: the file's patient record
    (``science.ObservedPatient``), which checks nothing, and ``alive_at``."""

    def alive_at(self, t: float) -> bool:
        """True iff the patient is known alive at horizon t (death time > t)."""
        return self.d_obs == 0 or self.t_obs > t


def observed_dataset(records, follow_up: float, visit_times=None) -> ObservedDataset:
    """``science.observed_dataset`` of ``records``, the function that turns
    the file's records into columns; by default the visits are the months at
    which some record has a value."""
    if visit_times is None:
        visit_times = sorted({month for p in records for month in p.y_obs})
    return science.observed_dataset(records, follow_up, visit_times)


def patients(data: ObservedDataset) -> tuple[ObservedRecord, ...]:
    """The rows of ``data`` as records, each patient's scores by visit, NaN
    left out."""
    return tuple(
        ObservedRecord(id=int(data.id[i]), x=tuple(data.x[i].tolist()), w=int(data.w[i]),
                       t_obs=float(data.t_obs[i]), d_obs=int(data.d_obs[i]),
                       y_obs={v: y for v, y in zip(data.visit_times, data.y[i].tolist())
                              if not math.isnan(y)})
        for i in range(len(data))
    )


def observed_records(records, follow_up: float) -> tuple[ObservedRecord, ...]:
    """The assigned arm of each science-table record, one at a time."""
    out = []
    for p in records:
        td = p.death_time(p.w)
        t_obs = min(td, follow_up)
        y_obs = {v: y for v, y in p.trajectory(p.w).items() if v <= t_obs}
        out.append(ObservedRecord(id=p.id, x=p.x, w=p.w, t_obs=float(t_obs),
                                  d_obs=int(td <= follow_up), y_obs=y_obs))
    return tuple(out)


def observe(records, follow_up: float, visit_times) -> ObservedDataset:
    """The observed dataset of the assigned arms, one record at a time."""
    return observed_dataset(observed_records(records, follow_up), follow_up, visit_times)


def assert_same_columns(got: ObservedDataset, want: ObservedDataset) -> None:
    """Every column of ``got`` has the dtype, shape and bits of ``want``'s,
    NaN and the sign of zero included, and the two trials are the same."""
    for name in ("id", "x", "w", "t_obs", "d_obs", "y"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert (got.follow_up, got.visit_times) == (want.follow_up, want.visit_times)


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


def observed_composite(p: ObservedRecord, t: float) -> CompositeOutcome:
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
    for p in records(science):
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
    for p, mu in zip(records(science), imputed_means):
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


def predict_s_mis(p: SurvivalParams, patient: ObservedRecord, t: float) -> float:
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


def _untiled_blocks(post: SurvivalPosterior, data: ObservedDataset, idx: np.ndarray):
    """``SurvivalPosterior._unassigned_tiles`` without patient tiles: each
    arm's patients, in index order, in one (block x arm) product."""
    for arm, lam, alpha in ((0, post.lambda0, post.alpha0), (1, post.lambda1, post.alpha1)):
        sel = np.flatnonzero(data.w != arm)
        x_arm = data.x[sel]
        for start in range(0, len(idx), S_MIS_BLOCK):
            block = idx[start:start + S_MIS_BLOCK]
            scale = np.exp(alpha[block] @ x_arm.T)
            yield sel, slice(start, start + len(block)), lam[block], scale


def untiled_s_mis_matrix(post: SurvivalPosterior, data: ObservedDataset, t, indices=None):
    """``SurvivalPosterior.s_mis_matrix`` over the untiled traversal; the
    mean is taken over every patient and then set to NaN for the patients
    dead at t."""
    idx = np.arange(post.n_draws) if indices is None else np.asarray(indices)
    times = np.atleast_1d(np.asarray(t, dtype=float))[:, None]
    dead = (data.d_obs == 1) & (data.t_obs <= times)
    overlaps = post.grid.overlaps(np.where(dead, data.t_obs, times))
    if indices is None:
        out = np.zeros((len(times), len(data)))
    else:
        out = np.empty((len(times), len(idx), len(data)))
    for sel, rows, lam, scale in _untiled_blocks(post, data, idx):
        for ov, res in zip(overlaps, out):
            s = lam @ ov[sel].T
            s *= scale
            np.exp(np.negative(s, out=s), out=s)
            if indices is None:
                res[sel] += s.sum(axis=0)
            else:
                res[rows, sel] = s
    if indices is None:
        out /= len(idx)
        out[dead] = np.nan
    return out if np.ndim(t) else out[0]


def untiled_rmst_matrix(post: SurvivalPosterior, data: ObservedDataset, t, indices):
    """``SurvivalPosterior.rmst_matrix`` over the untiled traversal."""
    idx = np.asarray(indices)
    overlaps = post.grid.overlaps(np.atleast_1d(np.asarray(t, dtype=float)))
    out = np.empty((len(overlaps), len(idx), len(data)))
    for sel, rows, lam, scale in _untiled_blocks(post, data, idx):
        out[:, rows, sel] = _rmst_batch(lam, scale, overlaps)
    return out if np.ndim(t) else out[0]


# --- convergence diagnostics ---------------------------------------------------


def _split_chains(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    if m < 2 or n < 4:
        raise ValueError("need at least 2 chains of at least 4 draws")
    half = n // 2
    return np.concatenate([x[:, :half], x[:, n - half:]], axis=0)


def rhat(x: np.ndarray) -> float:
    """Split-chain R-hat of one (chains, draws) array; NaN for constant chains."""
    s = _split_chains(x)
    m, n = s.shape
    w = s.var(axis=1, ddof=1).mean()
    b_over_n = s.mean(axis=1).var(ddof=1)
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
    """ESS of one (chains, draws) array: one FFT per split chain, then
    Geyer's initial monotone sequence as a loop over lag pairs."""
    s = _split_chains(x)
    m, n = s.shape
    acov = np.array([_autocovariance(s[i]) for i in range(m)])
    chain_var = acov[:, 0] * n / (n - 1)
    w = chain_var.mean()
    if w == 0:
        return float("nan")
    var_plus = (n - 1) / n * w + s.mean(axis=1).var(ddof=1)
    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
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


def stream_diagnostics(draws: dict[str, np.ndarray], cfg: McmcConfig):
    """``tbd.mcmc.stream_diagnostics``, one coordinate at a time."""
    diagnostics = {}
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


def predict_y_mis(params: LongParams, patient: ObservedRecord, t: float) -> tuple[float, float]:
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
    patient: ObservedRecord,
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
    for p in patients(data):
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
    for p in patients(data):
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


def full_row_mass_median(values: np.ndarray, masses: np.ndarray, half: float) -> np.ndarray:
    """``science.mass_median`` over whole rows, the infinite atoms among
    ``values`` (rows, atoms), each row sorted by value: the value where the
    cumulative mass first reaches ``half``, or, at a boundary exactly
    between two atoms, their mean, where an infinity wins and opposite
    infinities give NaN. One running sum over every atom of a row, the
    +inf run included, with no atom left out: the reference for the
    finite-atom form, bit for bit."""
    cum = np.cumsum(masses, axis=1)
    rows = np.arange(len(masses))
    # the first atom reaching half; there is one, as the masses add up to 2 * half
    idx = (cum < half - _MASS_TOL).sum(axis=1)
    later = (masses > 0) & (np.arange(masses.shape[1])[None, :] > idx[:, None])
    at_boundary = np.abs(cum[rows, idx] - half) <= _MASS_TOL  # half the mass is later
    lo = values[rows, idx]
    hi = values[rows, np.argmax(later, axis=1)]
    with np.errstate(invalid="ignore"):
        mid = np.where(np.isinf(lo), lo, np.where(np.isinf(hi), hi, 0.5 * (lo + hi)))
    mid[np.isinf(lo) & np.isinf(hi) & (lo != hi)] = np.nan
    return np.where(at_boundary, mid, lo)


def percentile_summary(draws) -> EstimandSummary:
    """Median and centered 2.5/97.5 percentiles over the finite draws, by
    ``np.percentile``'s default (linear) method; non-finite draws are left
    out of the quantiles and counted in ``frac_undefined``."""
    arr = np.asarray(draws, dtype=float)
    finite = arr[np.isfinite(arr)]
    frac_undef = 1.0 - len(finite) / len(arr)
    if len(finite) == 0:
        return EstimandSummary(None, None, None, 1.0, len(arr))
    lo, med, hi = np.percentile(finite, [2.5, 50.0, 97.5])
    return EstimandSummary(float(med), float(lo), float(hi), frac_undef, len(arr))


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
    for p in patients(data):
        for v, m in composite_diff_dist(s_draw, l_draw, p, t).atoms:
            values.append(v)
            masses.append(m)
    return _pooled_median(np.array(values), np.array(masses), half=len(data) / 2.0)


def rmst_draw(s_draw: SurvivalParams, data: ObservedDataset, t: float) -> float:
    """Restricted-mean survival contrast for one draw: observed restricted
    time minus the integrated counterfactual survival curve, averaged with
    the assignment sign."""
    total = 0.0
    for p in patients(data):
        integral = rmst_integral(s_draw, p.x, 1 - p.w, t)
        total += (2 * p.w - 1) * (min(p.t_obs, t) - integral)
    return total / len(data)
