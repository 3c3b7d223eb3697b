"""olmsim: Cournot-based simulator and panel-econometrics toolkit for AI
shocks on online labor markets.

The package has five parts: the market model (``market``), the synthetic
panel generator (``synth``), the panel regression engine (``regression``),
propensity-score matching (``matching``), and the batch pipeline with its
reporting layer (``pipeline``, ``report``).
"""

__version__ = "0.1.0"

from .market import (
    Equilibrium,
    MarketPotentialSpec,
    MarketSpec,
    Phase,
    PhaseResult,
    PotentialFamily,
    classify_phase,
    cournot_equilibrium,
    equilibrium_from_primitives,
    eval_potential,
    inflection_point,
    potential_slope,
    sweep_comparative_statics,
)
from .panel import PanelArrays
from .synth import (
    AiPath,
    GroundTruth,
    MarketScenario,
    ModeratorBoost,
    ScenarioConfig,
    ground_truth_att,
)
from .regression import (
    FitResult,
    RegressionSpec,
    TostResult,
    absorb_two_way,
    cluster_vcov,
    coef_to_percent,
    demand_did_fit,
    did_fit,
    dual_shock_fit,
    event_study_fit,
    heterogeneity_fit,
    ols_fit,
    tost_pretrends,
)
from .matching import (
    BalanceTable,
    MatchResult,
    PropensityModel,
    balance_table,
    logit_fit,
    propensity_match,
)
from .report import QuadrantLabel, classify_quadrant
from .pipeline import RunManifest, ingest_panel_csv, parse_scenario, run_pipeline

__all__ = [
    "__version__",
    "AiPath",
    "BalanceTable",
    "Equilibrium",
    "FitResult",
    "GroundTruth",
    "MarketPotentialSpec",
    "MarketScenario",
    "MarketSpec",
    "MatchResult",
    "ModeratorBoost",
    "PanelArrays",
    "Phase",
    "PhaseResult",
    "PotentialFamily",
    "PropensityModel",
    "QuadrantLabel",
    "RegressionSpec",
    "RunManifest",
    "ScenarioConfig",
    "TostResult",
    "absorb_two_way",
    "balance_table",
    "classify_phase",
    "classify_quadrant",
    "cluster_vcov",
    "coef_to_percent",
    "cournot_equilibrium",
    "demand_did_fit",
    "did_fit",
    "dual_shock_fit",
    "equilibrium_from_primitives",
    "eval_potential",
    "event_study_fit",
    "ground_truth_att",
    "heterogeneity_fit",
    "inflection_point",
    "ingest_panel_csv",
    "logit_fit",
    "ols_fit",
    "parse_scenario",
    "potential_slope",
    "propensity_match",
    "run_pipeline",
    "sweep_comparative_statics",
    "tost_pretrends",
]
