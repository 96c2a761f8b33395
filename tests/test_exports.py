"""The package's public names: each module's ``__all__``, re-exported once.

Runs against whichever ``antlion`` is importable: the source tree under
``PYTHONPATH=src``, or an installed package without it.
"""

import antlion
from antlion import analysis, bandit, core, exact, montecarlo, reachability

MODULES = (core, exact, montecarlo, analysis, reachability, bandit)

# Every name the package exported before its list was derived from the
# modules, less the three helpers deleted then: sample_step, position_bounds
# and inverse_path_value.
STABLE_EXPORTS = [
    "__version__",
    "Alpha",
    "WalkParams",
    "evolve",
    "closed_form_mean",
    "closed_form_variance",
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


def test_all_is_the_module_lists_without_duplicates():
    expected = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert antlion.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_name_is_its_modules_object():
    assert isinstance(antlion.__version__, str)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(antlion, name) is getattr(module, name), (module.__name__, name)


def test_no_stable_export_is_lost():
    assert len(STABLE_EXPORTS) == 50
    assert set(STABLE_EXPORTS) <= set(antlion.__all__)
