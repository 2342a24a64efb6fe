"""Statistical substrate: seeding, weighted sampling, empirical
distributions, power-law fitting, and growth-rate estimation."""

from .distributions import (
    Ccdf,
    binned_spectrum,
    empirical_ccdf,
    frequency_counts,
    histogram,
    ks_distance,
    log_bin_centers,
    log_binned_histogram,
)
from .correlation import pearson_correlation, rank_values, spearman_correlation
from .inequality import gini_coefficient, lorenz_curve
from .growth import (
    ExponentialFit,
    PowerFit,
    doubling_time,
    fit_exponential_growth,
    fit_power_scaling,
)
from .powerlaw import (
    PowerLawFit,
    bootstrap_gamma,
    fit_discrete_powerlaw,
    fit_powerlaw_auto_xmin,
    hill_estimator,
    powerlaw_plausibility,
    sample_discrete_powerlaw,
)
from .rng import BufferedUniforms, make_numpy_rng, make_rng, spawn_seed
from .sampling import (
    AliasSampler,
    FenwickSampler,
    distinct_in_order,
    weighted_choice,
)

__all__ = [
    "Ccdf",
    "empirical_ccdf",
    "log_bin_centers",
    "log_binned_histogram",
    "binned_spectrum",
    "ks_distance",
    "histogram",
    "frequency_counts",
    "ExponentialFit",
    "PowerFit",
    "fit_exponential_growth",
    "fit_power_scaling",
    "doubling_time",
    "PowerLawFit",
    "fit_discrete_powerlaw",
    "fit_powerlaw_auto_xmin",
    "hill_estimator",
    "bootstrap_gamma",
    "sample_discrete_powerlaw",
    "powerlaw_plausibility",
    "make_rng",
    "make_numpy_rng",
    "spawn_seed",
    "BufferedUniforms",
    "AliasSampler",
    "FenwickSampler",
    "weighted_choice",
    "distinct_in_order",
    "gini_coefficient",
    "lorenz_curve",
    "pearson_correlation",
    "spearman_correlation",
    "rank_values",
]
