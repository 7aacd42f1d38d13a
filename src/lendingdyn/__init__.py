"""Threshold lending dynamics between two groups.

Agents carry repayment scores in [0, 1].  A lender approves anyone at or
above a threshold; repayment moves a score up by k, a late payment moves
it down by c*k, and denied agents stay put.  The package simulates these
dynamics, derives the mean-optimal threshold in closed form, analyzes the
single-agent walk as an exact absorbing Markov chain, compares threshold
and penalty interventions on a utility grid, and fits the late-payment
risk model that produces initial scores from loan records.
"""

__version__ = "0.1.0"

from ._random import derive_seed, substream
from .distributions import (BetaSpec, DominanceReport, check_dominance,
                            empirical_cdf, read_score_csv, sample_beta,
                            write_score_csv)
from .dynamics import (DynamicsParams, ScoreDistribution, ThresholdPolicy,
                       Trajectory, expected_next_score, simulate,
                       simulate_group, step_mean, step_population,
                       verify_bifurcation)
from .interventions import (GridCell, InterventionKind, InterventionSpec,
                            PolicyOutcome, RecommendationGrid, UtilityWeights,
                            WorkerLost, apply_intervention, baseline_outcome,
                            evaluate_policy, grid_as_dict, grid_rows,
                            grid_search_threshold, recommend_grid, utility)
from .markov import (AbsorbingChain, AbsorptionResult, ChainError,
                     RationalStep, StateSpace, absorption_probabilities,
                     build_chain, enumerate_states, transient_mass)
from .risk import (FitDiagnostics, LoanRecord, LoanTable, LoadResult,
                   RiskModel, RowReject, SeparationError, fit_logistic,
                   load_records, predict_many, to_score_distributions)
from .thresholds import OptimalThreshold, optimal_threshold

__all__ = [
    "__version__",
    "AbsorbingChain", "AbsorptionResult", "BetaSpec", "ChainError",
    "DominanceReport", "DynamicsParams", "FitDiagnostics", "GridCell", "InterventionKind", "InterventionSpec", "LoadResult",
    "LoanRecord", "LoanTable", "OptimalThreshold", "PolicyOutcome",
    "RationalStep", "RecommendationGrid", "RiskModel", "RowReject",
    "ScoreDistribution", "SeparationError", "StateSpace", "ThresholdPolicy",
    "Trajectory", "UtilityWeights", "WorkerLost",
    "absorption_probabilities", "apply_intervention", "baseline_outcome",
    "build_chain", "check_dominance", "derive_seed",
    "empirical_cdf", "enumerate_states", "evaluate_policy",
    "expected_next_score", "fit_logistic", "grid_as_dict",
    "grid_rows", "grid_search_threshold", "load_records",
    "optimal_threshold", "predict_many", "read_score_csv", "recommend_grid",
    "sample_beta", "simulate", "simulate_group", "step_mean",
    "step_population", "substream", "to_score_distributions",
    "transient_mass", "utility", "verify_bifurcation", "write_score_csv",
]
