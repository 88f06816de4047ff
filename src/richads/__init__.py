"""Rich-ads auction toolkit: monotone allocation, truthful pricing, baselines.

Advertisers bring a per-click value and a catalog of ad variants (click
probability, space demand); one shared space budget. Everything runs in
exact rational arithmetic.
"""

from .equilibrium import (
    BetaCheck,
    Mechanism,
    NashResult,
    StrategySpace,
    best_response,
    beta_bound_check,
    find_pure_nash,
    gsp_mixture_mechanism,
    myerson_mixture_mechanism,
    poa_report,
    strategy_spaces,
    utility,
)
from .exact import int_opt_cross_checked, int_opt_dp, int_opt_exhaustive
from .fixtures import fixture
from .fracopt import FractionalSolution, eliminate_dominated, fractional_opt
from .harness import (
    ExperimentConfig,
    generate_corpus,
    monotonicity_audit,
    run_comparison,
    run_experiment,
    tie_prone_config,
)
from .heuristics import greedy_by_bpb, greedy_by_value, randomized_greedy, sample_mixture
from .model import (
    Advertiser,
    Allocation,
    GuardExceededError,
    Instance,
    InvariantViolation,
    Mixture,
    NonMonotoneClickCurveError,
    ReportProfile,
    RichAd,
    Violation,
    load_instance,
    social_welfare,
    truthful_profile,
    validate_instance,
)
from .monotone import (
    GSP_MIX_P,
    TRUTHFUL_MIX_P,
    bpb_allocation,
    max_value_allocation,
    randomized_mechanism,
    space_assignment,
)
from .pricing import (
    AllocationRule,
    BidThresholds,
    PricedOutcome,
    bid_thresholds,
    gsp_prices,
    mixture_rule,
    myerson_payment,
    vcg_payments,
)

__version__ = "0.1.0"

__all__ = [
    "Advertiser",
    "Allocation",
    "AllocationRule",
    "BetaCheck",
    "BidThresholds",
    "ExperimentConfig",
    "FractionalSolution",
    "GSP_MIX_P",
    "GuardExceededError",
    "Instance",
    "InvariantViolation",
    "Mechanism",
    "Mixture",
    "NashResult",
    "NonMonotoneClickCurveError",
    "PricedOutcome",
    "ReportProfile",
    "RichAd",
    "StrategySpace",
    "TRUTHFUL_MIX_P",
    "Violation",
    "best_response",
    "beta_bound_check",
    "bid_thresholds",
    "bpb_allocation",
    "eliminate_dominated",
    "find_pure_nash",
    "fixture",
    "fractional_opt",
    "generate_corpus",
    "greedy_by_bpb",
    "greedy_by_value",
    "gsp_mixture_mechanism",
    "gsp_prices",
    "int_opt_cross_checked",
    "int_opt_dp",
    "int_opt_exhaustive",
    "load_instance",
    "max_value_allocation",
    "mixture_rule",
    "monotonicity_audit",
    "myerson_mixture_mechanism",
    "myerson_payment",
    "poa_report",
    "randomized_greedy",
    "randomized_mechanism",
    "run_comparison",
    "run_experiment",
    "sample_mixture",
    "social_welfare",
    "space_assignment",
    "strategy_spaces",
    "tie_prone_config",
    "truthful_profile",
    "utility",
    "validate_instance",
    "vcg_payments",
]
