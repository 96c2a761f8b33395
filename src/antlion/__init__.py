"""Antlion random walk toolkit.

A walk that is pulled back toward the origin by a memory factor before every
unit step. The package covers exact distribution enumeration for rational
memory parameters, reproducible Monte Carlo, reachability analysis with
witnesses and gap certificates, positive-side residence times, Cramer-von
Mises distances to the standard normal, and the two-armed bandit threshold
model the walk originates from.
"""

__version__ = "0.1.0"

from .analysis import (
    CvmResult,
    DiscreteCdf,
    ResidenceSummary,
    compare_residence_to_binomial,
    cvm_distance,
    cvm_grid_table,
    cvm_lower_bound,
    exact_standardized_cdf,
    normal_cdf,
    simple_rw_exact_cdf,
    standardize_arw,
    standardize_srw,
    uniform_cdf,
)
from .bandit import (
    AlphaSweepRow,
    Ar1Signal,
    BanditConfig,
    BanditTrace,
    NormalSignal,
    UniformSignal,
    nearest_integer,
    run_bandit,
    sweep_alpha,
)
from .core import (
    Alpha,
    ResourceLimitError,
    WalkParams,
    closed_form_mean,
    closed_form_variance,
    evolve,
    position_bounds,
    sample_step,
)
from .exact import (
    Collision,
    CollisionReport,
    ExactDistribution,
    HorizonTooLargeError,
    check_path_uniqueness_exact,
    check_path_uniqueness_real,
    enumerate_distribution,
    exact_moments,
    exact_residence_distribution,
    path_weights,
    support_size,
)
from .montecarlo import (
    Ecdf,
    TrajectoryBatch,
    empirical_cdf,
    residence_times,
    simulate,
    simulate_simple_rw,
)
from .reachability import (
    ReachQuery,
    ReachResult,
    central_gap,
    inverse_path_value,
    is_eps_reachable,
)

__all__ = [
    "__version__",
    "Alpha",
    "WalkParams",
    "sample_step",
    "evolve",
    "closed_form_mean",
    "closed_form_variance",
    "position_bounds",
    "ExactDistribution",
    "HorizonTooLargeError",
    "Collision",
    "CollisionReport",
    "enumerate_distribution",
    "support_size",
    "check_path_uniqueness_exact",
    "check_path_uniqueness_real",
    "exact_moments",
    "exact_residence_distribution",
    "path_weights",
    "TrajectoryBatch",
    "Ecdf",
    "ResourceLimitError",
    "simulate",
    "simulate_simple_rw",
    "empirical_cdf",
    "residence_times",
    "CvmResult",
    "ResidenceSummary",
    "DiscreteCdf",
    "standardize_arw",
    "standardize_srw",
    "normal_cdf",
    "uniform_cdf",
    "exact_standardized_cdf",
    "simple_rw_exact_cdf",
    "cvm_distance",
    "cvm_grid_table",
    "compare_residence_to_binomial",
    "cvm_lower_bound",
    "ReachQuery",
    "ReachResult",
    "central_gap",
    "is_eps_reachable",
    "inverse_path_value",
    "BanditConfig",
    "BanditTrace",
    "AlphaSweepRow",
    "UniformSignal",
    "NormalSignal",
    "Ar1Signal",
    "nearest_integer",
    "run_bandit",
    "sweep_alpha",
]
