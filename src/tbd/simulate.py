"""Rank-preserving RCT simulator and exact finite-sample ground truths.

Each patient gets one shared longitudinal noise draw and one shared survival
quantile draw used under *both* arms, so arm-to-arm contrasts are
deterministic given covariates (rank preservation). Trajectories are linear
in time; survival times are Weibull with a covariate-shifted scale.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .codec import decode
from .science import (ObservedDataset, ObservedPatient, PatientTruth, ScienceTable,
                      check_visit_times, composite_metric)


class ScenarioError(ValueError):
    """An unknown scenario name, or parameters that produce an invalid
    data-generating process."""


@dataclass(frozen=True)
class ScenarioParams:
    """Data-generating parameters for one simulated trial scenario.

    Longitudinal slopes (score units per month) and Weibull scales (months)
    are affine in the measured covariate x ~ N(0, 1) and, optionally, an
    unmeasured covariate u ~ N(0, 1): the arm-0 row gives the control arm's
    coefficients and the arm-1 row the treated arm's.

    Fields
    ------
    a0_0, a0_x, a0_u : control-arm slope intercept and covariate loadings
    a1_0, a1_x, a1_u : treated-arm slope row
    th0_0, th0_x, th0_u : control-arm Weibull scale row
    th1_0, th1_x, th1_u : treated-arm Weibull scale row
    sigma : residual scale of the shared longitudinal noise, > 0
    rho : Weibull shape, > 0
    """

    name: str
    a0_0: float
    a1_0: float
    a0_x: float
    a1_x: float
    a0_u: float
    a1_u: float
    th0_0: float
    th1_0: float
    th0_x: float
    th1_x: float
    th0_u: float
    th1_u: float
    sigma: float
    rho: float
    follow_up: float
    visit_times: tuple[float, ...]
    n: int

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ScenarioError("sigma must be positive")
        if self.rho <= 0:
            raise ScenarioError("rho must be positive")
        if self.n <= 0:
            raise ScenarioError("n must be positive")
        if self.follow_up <= 0:
            raise ScenarioError("follow_up must be positive")
        check_visit_times(self.visit_times, self.follow_up, ScenarioError)

    def with_updates(self, **kwargs) -> "ScenarioParams":
        return replace(self, **kwargs)

    def slopes(self, x, u=0.0):
        """Longitudinal slope (per month) under control and treatment,
        elementwise over covariate values or arrays ``x`` and ``u``."""
        slope0 = self.a0_0 + self.a0_x * x + self.a0_u * u
        slope1 = self.a1_0 + self.a1_x * x + self.a1_u * u
        return slope0, slope1

    def scales(self, x, u=0.0):
        """Weibull scale (months) under control and treatment, elementwise."""
        scale0 = self.th0_0 + self.th0_x * x + self.th0_u * u
        scale1 = self.th1_0 + self.th1_x * x + self.th1_u * u
        return scale0, scale1

    @property
    def uses_unmeasured(self) -> bool:
        return any(c != 0.0 for c in (self.a0_u, self.a1_u, self.th0_u, self.th1_u))


@dataclass(frozen=True)
class TruthRecord:
    """Exact finite-sample estimands computed from a science table.

    ``sace`` is None when the always-survivor stratum is empty; ``sim`` is
    None when the median order statistics are infinities of opposite sign,
    and +/-inf when the median itself is infinite.
    """

    time: float
    sace: float | None
    pc: float
    sim: float | None
    rmst: float
    death_frac_control: float
    death_frac_treated: float
    n_ll: int


def weibull_quantile(u, scale, shape):
    """Inverse CDF of the Weibull(scale, shape) distribution."""
    return scale * (-np.log1p(-np.asarray(u))) ** (1.0 / shape)


def child_seed(master_seed: int, *parts) -> np.random.SeedSequence:
    """Derive an independent seed stream from a master seed and a cell key.

    String parts are hashed with crc32 so the split is stable across runs
    and platforms; integer parts are used as-is.
    """
    key = [int(master_seed)]
    for part in parts:
        if isinstance(part, str):
            key.append(zlib.crc32(part.encode("utf8")))
        else:
            key.append(int(part))
    return np.random.SeedSequence(key)


def simulate_science_table(params: ScenarioParams, seed) -> ScienceTable:
    """Draw a full science table (both arms' potential outcomes) for a trial.

    Per patient: x ~ N(0, 1); one noise draw epsilon ~ N(0, sigma) shared by
    both arms' trajectories; one uniform draw mapped through the Weibull
    quantile under each arm's scale, so survival is rank-preserving across
    arms. Treatment is assigned 1:1 by permutation (n // 2 treated).
    """
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
        raise ScenarioError(
            f"scenario {params.name!r}: non-positive Weibull scale for some sampled covariate"
        )
    t0 = weibull_quantile(u_surv, scale0, params.rho)
    t1 = weibull_quantile(u_surv, scale1, params.rho)

    visits = params.visit_times
    patients = tuple(
        PatientTruth(id=i, x=(float(x[i]),), w=int(w[i]), t0=float(t0[i]), t1=float(t1[i]),
                     y0={v: slope0[i] * v + eps[i] for v in visits if v < t0[i]},
                     y1={v: slope1[i] * v + eps[i] for v in visits if v < t1[i]})
        for i in range(n)
    )
    return ScienceTable(patients=patients, follow_up=params.follow_up, visit_times=visits)


def observe(science: ScienceTable) -> ObservedDataset:
    """Reduce a science table to the observed dataset of the assigned arms."""
    out = []
    for p in science.patients:
        td = p.death_time(p.w)
        t_obs = min(td, science.follow_up)
        y_obs = {v: y for v, y in p.trajectory(p.w).items() if v <= t_obs}
        out.append(ObservedPatient(id=p.id, x=p.x, w=p.w, t_obs=float(t_obs),
                                   d_obs=int(td <= science.follow_up), y_obs=y_obs))
    return ObservedDataset(
        patients=tuple(out), follow_up=science.follow_up, visit_times=science.visit_times
    )


def extended_median(values) -> float | None:
    """Order-statistic median over the extended reals.

    Odd n takes the middle order statistic; even n averages the two middle
    ones. Averaging infinities of the same sign (or an infinity with a
    finite value) yields that infinity; opposite-signed infinities have no
    defined midpoint and return None.
    """
    vals = np.sort(np.asarray(values, dtype=float), kind="stable")
    n = len(vals)
    if n == 0:
        raise ValueError("median of empty collection")
    if n % 2 == 1:
        return float(vals[n // 2])
    lo, hi = float(vals[n // 2 - 1]), float(vals[n // 2])
    if math.isinf(lo) and math.isinf(hi) and lo != hi:
        return None
    if math.isinf(lo):
        return lo
    if math.isinf(hi):
        return hi
    return 0.5 * (lo + hi)


def true_estimands(science: ScienceTable, t: float) -> TruthRecord:
    """Exact finite-sample estimands at horizon t from the full science table.

    All four read each patient's ``composite_metric`` (treated minus
    control): SACE is its mean over the always-survivors, PC the share of
    positive values with half credit for zeros, SIM its extended median.
    RMST is the mean difference of the restricted death times.
    """
    if t not in science.visit_times:
        raise ValueError(f"t={t} is not a visit time of this table")
    v = science.at(t)
    n = len(science)
    metric = composite_metric(v.t0, v.t1, v.y0, v.y1, t)
    ll = (v.t0 > t) & (v.t1 > t)
    n_ll = int(np.count_nonzero(ll))
    # wins plus half the ties: sums of halves, exact in floating point
    pc = int(np.count_nonzero(metric > 0)) + 0.5 * int(np.count_nonzero(metric == 0))
    # cumsum adds in patient order, as a running sum does
    rmst = float(np.cumsum(np.minimum(v.t1, t) - np.minimum(v.t0, t))[-1])
    return TruthRecord(
        time=t,
        sace=float(np.mean(metric[ll])) if n_ll else None,
        pc=pc / n,
        sim=extended_median(metric),
        rmst=rmst / n,
        death_frac_control=int(np.count_nonzero(v.t0 <= t)) / n,
        death_frac_treated=int(np.count_nonzero(v.t1 <= t)) / n,
        n_ll=n_ll,
    )


# --- scenario library --------------------------------------------------------

def _params_from_dict(name: str, doc: dict) -> ScenarioParams:
    """Scenario from a JSON object; a key that is neither a parameter nor
    ``description`` is refused rather than silently ignored."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"scenario {name!r}: expected an object, got {doc!r}")
    params = {k: v for k, v in doc.items() if k != "description"}
    try:
        return decode(ScenarioParams, {**params, "name": name})
    except ValueError as exc:
        raise ScenarioError(f"scenario {name!r}: {exc}") from exc


def load_scenarios(path=None) -> dict[str, ScenarioParams]:
    """Load the named scenario library (the packaged file by default)."""
    if path is None:
        text = resources.files("tbd").joinpath("scenarios.json").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ScenarioError(f"expected an object of named scenarios, got {doc!r}")
    return {name: _params_from_dict(name, d) for name, d in doc.items()}


def get_scenario(name: str, library: dict[str, ScenarioParams] | None = None) -> ScenarioParams:
    """Scenario ``name`` from ``library`` (the packaged one by default)."""
    lib = load_scenarios() if library is None else library
    if name not in lib:
        raise ScenarioError(f"unknown scenario {name!r}; known: {sorted(lib)}")
    return lib[name]
