"""Treatment-effect estimation for longitudinal outcomes truncated by death.

The package covers the full loop: simulate rank-preserving trial data with
known ground truth, fit a two-step Bayesian model (piecewise-exponential
survival, then a stratum-weighted longitudinal regression), compute four
causal estimands per posterior draw (always-survivor contrast, pairwise
comparison, survival-incorporated median, restricted-mean survival time),
and score bias and coverage across replicated scenarios.
"""

from .estimators import EstimandDraws, EstimandSummary, estimand_draws, naive_effect, summarize, wmw
from .longitudinal import LongitudinalPosterior, LongPriors, compute_weights, fit_longitudinal
from .mcmc import Block, McmcConfig, McmcResult, ModelSpec, ess, rhat, run_chains
from .metrics import (
    BiasCoverage,
    bias_and_coverage,
    brier_scores,
    cdauc,
    ibs,
    km_survival,
    mae_reconstruction,
)
from .science import (
    InvariantError,
    ObservedDataset,
    ObservedPatient,
    PatientTruth,
    ScienceTable,
    composite_metric,
)
from .simulate import (
    ScenarioParams,
    TruthRecord,
    child_seed,
    extended_median,
    get_scenario,
    load_scenarios,
    observe,
    simulate_science_table,
    true_estimands,
    weibull_quantile,
)
from .study import StudyConfig, StudyResults, build_config, emit_report, run_cell, run_study
from .survival import HazardGrid, SurvivalPosterior, SurvivalPriors, default_grid, fit_survival

__version__ = "0.1.0"
