"""Dynamics on topologies: attack/failure tolerance and SIS epidemics."""

from .attack import (
    AttackStrategy,
    RemovalTrajectory,
    critical_fraction,
    victim_order,
)
from .epidemic import SisResult, endemic_prevalence, prevalence_curve, simulate_sis
from .sweep import (
    InflationTrajectory,
    link_redundancy,
    path_inflation_sweep,
    percolation_sweep,
    robustness_summary,
    shortcut_fraction,
)

__all__ = [
    "AttackStrategy",
    "RemovalTrajectory",
    "victim_order",
    "critical_fraction",
    "InflationTrajectory",
    "percolation_sweep",
    "path_inflation_sweep",
    "link_redundancy",
    "shortcut_fraction",
    "robustness_summary",
    "SisResult",
    "simulate_sis",
    "endemic_prevalence",
    "prevalence_curve",
]
