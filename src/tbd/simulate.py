"""Rank-preserving RCT simulator and exact finite-sample ground truths.

Each patient gets one shared longitudinal noise draw and one shared survival
quantile draw used under *both* arms, so arm-to-arm contrasts are
deterministic given covariates (rank preservation). Trajectories are linear
in time; survival times are Weibull with a covariate-shifted scale. Every
array here, the science table's columns included, has one row per patient.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
# numpy loads its random module at the first np.random access, about 6 ms;
# loaded with the package, that cost does not fall into the first study
# cell's time, whose first step is a SeedSequence (child_seed)
import numpy.random  # noqa: F401

from .codec import decode
from .science import (ObservedDataset, ScienceTable, check_visit_times, composite_metric,
                      load_json, mass_median)


class ScenarioError(ValueError):
    """An unknown scenario name, or parameters that produce an invalid
    data-generating process."""


# the slope and Weibull scale coefficients of ``ScenarioParams``, each finite
_COEFFICIENTS = tuple(f"{row}{arm}_{c}" for row in ("a", "th") for arm in (0, 1) for c in "0xu")


@dataclass(frozen=True)
class ScenarioParams:
    """Data-generating parameters for one simulated trial scenario.

    Longitudinal slopes (score units per month) and Weibull scales (months)
    are affine in the measured covariate x ~ N(0, 1) and, optionally, an
    unmeasured covariate u ~ N(0, 1): the arm-0 row gives the control arm's
    coefficients and the arm-1 row the treated arm's. Every coefficient must
    be finite; ``simulate_science_table`` refuses a scale row that is not
    positive for some drawn covariate.

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
        for name in _COEFFICIENTS:
            if not math.isfinite(value := getattr(self, name)):
                raise ScenarioError(f"{name} must be finite, got {value}")
        for name in ("sigma", "rho", "follow_up"):
            if not (math.isfinite(value := getattr(self, name)) and value > 0):
                raise ScenarioError(f"{name} must be positive and finite, got {value}")
        if self.n <= 0:
            raise ScenarioError("n must be positive")
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

    visits = np.array(params.visit_times)
    # slope * visit + noise, as the same two IEEE operations per score
    y0 = np.where(t0[:, None] > visits, slope0[:, None] * visits + eps[:, None], np.nan)
    y1 = np.where(t1[:, None] > visits, slope1[:, None] * visits + eps[:, None], np.nan)
    return ScienceTable(x=x[:, None], w=w, t0=t0, t1=t1, y0=y0, y1=y1,
                        follow_up=params.follow_up, visit_times=params.visit_times)


def observe(science: ScienceTable) -> ObservedDataset:
    """Reduce a science table to the observed dataset of the assigned arms,
    one patient per row, ids the row indices."""
    fu, treated = science.follow_up, science.w == 1
    td = np.where(treated, science.t1, science.t0)
    return ObservedDataset(id=np.arange(len(td)), x=science.x, w=science.w,
                           t_obs=np.minimum(td, fu), d_obs=td <= fu,
                           y=np.where(treated[:, None], science.y1, science.y0),
                           follow_up=fu, visit_times=science.visit_times)


def true_estimands(science: ScienceTable, t: float) -> TruthRecord:
    """Exact finite-sample estimands at horizon t from the full science table.

    All four read each patient's ``composite_metric`` (treated minus
    control): SACE is its mean over the always-survivors, PC the share of
    positive values with half credit for zeros, SIM its ``mass_median`` with
    unit masses, the infinite values as runs of them at -inf and +inf (None
    between opposite infinities).
    RMST is the mean difference of the restricted death times.
    """
    (y0, y1), t0, t1 = science.at(t), science.t0, science.t1
    n = len(science)
    metric = composite_metric(t0, t1, y0, y1, t)
    ll = (t0 > t) & (t1 > t)
    n_ll = int(np.count_nonzero(ll))
    # wins plus half the ties: sums of halves, exact in floating point
    pc = int(np.count_nonzero(metric > 0)) + 0.5 * int(np.count_nonzero(metric == 0))
    # cumsum adds in patient order, as a running sum does
    rmst = float(np.cumsum(np.minimum(t1, t) - np.minimum(t0, t))[-1])
    # unit masses, the infinities as runs of them: every running sum is an exact integer
    finite = np.sort(metric[np.isfinite(metric)], kind="stable")[None]
    runs = (np.ones((1, int(np.count_nonzero(metric == inf)))) for inf in (-np.inf, np.inf))
    sim = float(mass_median(finite, np.ones_like(finite), n / 2, *runs)[0])
    return TruthRecord(
        time=t,
        sace=float(np.mean(metric[ll])) if n_ll else None,
        pc=pc / n,
        sim=None if math.isnan(sim) else sim,
        rmst=rmst / n,
        death_frac_control=int(np.count_nonzero(t0 <= t)) / n,
        death_frac_treated=int(np.count_nonzero(t1 <= t)) / n,
        n_ll=n_ll,
    )


# --- scenario library --------------------------------------------------------

def _params_from_dict(name: str, doc: dict) -> ScenarioParams:
    """Scenario from a JSON object; a key that is neither a parameter nor
    ``description`` is refused rather than silently ignored."""
    try:
        params = {k: v for k, v in decode(dict[str, object], doc).items() if k != "description"}
        return decode(ScenarioParams, {**params, "name": name})
    except ValueError as exc:
        raise ScenarioError(f"scenario {name!r}: {exc}") from exc


def load_scenarios(path=None) -> dict[str, ScenarioParams]:
    """Load the named scenario library (the packaged file by default)."""
    doc = load_json(path or Path(__file__).with_name("scenarios.json"))
    if not isinstance(doc, dict):
        raise ScenarioError(f"expected an object of named scenarios, got {doc!r}")
    return {name: _params_from_dict(name, d) for name, d in doc.items()}


def get_scenario(name: str, library: dict[str, ScenarioParams] | None = None) -> ScenarioParams:
    """Scenario ``name`` from ``library`` (the packaged one by default)."""
    lib = load_scenarios() if library is None else library
    if name not in lib:
        raise ScenarioError(f"unknown scenario {name!r}; known: {sorted(lib)}")
    return lib[name]
