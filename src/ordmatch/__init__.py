"""Ordinal b-matching mechanisms under stochastic preferences: mechanisms,
exact analytics, an optimal-matching oracle, and a reproducible Monte Carlo
distortion estimator."""

from .core import (
    UNASSIGNED,
    Instance,
    Matching,
    PreferenceProfile,
    RandomStream,
    ValuationProfile,
    complete_matching,
    derive_preferences,
    social_welfare,
)
from .distributions import DistributionSpec, sample_profile
from .mechanisms import MechanismSpec, run_mechanism
from .opt import OptResult, brute_force_opt, optimal_matching, optimal_value
from .estimator import (
    EstimateReport,
    ProbMatrixReport,
    OneToOneReplayReport,
    UFAuditReport,
    estimate_assignment_probs,
    estimate_distortion,
    estimate_distortions,
    run_lb_theorem1,
    uf_audit,
)

__all__ = [
    "UNASSIGNED",
    "Instance",
    "Matching",
    "PreferenceProfile",
    "RandomStream",
    "ValuationProfile",
    "complete_matching",
    "derive_preferences",
    "social_welfare",
    "DistributionSpec",
    "UFAuditReport",
    "sample_profile",
    "uf_audit",
    "MechanismSpec",
    "run_mechanism",
    "OptResult",
    "brute_force_opt",
    "optimal_matching",
    "optimal_value",
    "EstimateReport",
    "ProbMatrixReport",
    "OneToOneReplayReport",
    "estimate_assignment_probs",
    "estimate_distortion",
    "estimate_distortions",
    "run_lb_theorem1",
]

__version__ = "0.1.0"
