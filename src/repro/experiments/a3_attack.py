"""Experiment A3 (extension) — attack and failure tolerance.

Albert–Jeong–Barabási on our topologies: the giant-component fraction as
nodes are removed randomly vs by (adaptive) highest degree.  Expected
shape: heavy-tailed maps shrug off random failure (giant survives at 50%
removal) but collapse under targeted attack within the first ~10–20% of
removals; ER degrades gracefully under both.

The tolerance-summary scalars run as ``robustness`` metric-group units
through the parallel/cached/journaled battery runner — pass ``jobs=N`` to
fan models over worker processes, ``cache_dir`` to reuse computed cells
across runs, and ``timeout``/``retries`` for fault containment: a model
whose generation or sweep raises costs only its own row (reported in a
failed-units table), never the experiment.  The per-model trajectory
series are then swept directly at this experiment's own
*max_fraction*/*steps* resolution via :func:`repro.resilience.sweep.
percolation_sweep`.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from ..core.battery import run_battery
from ..core.metrics import compute_metric_groups
from ..datasets.asmap import reference_as_map
from ..graph.traversal import giant_component
from ..resilience.attack import AttackStrategy
from ..resilience.sweep import percolation_sweep
from .base import ExperimentResult, stage
from .rosters import standard_roster

__all__ = ["run_a3"]

_DEFAULT_MODELS = ("erdos-renyi", "barabasi-albert", "serrano")

#: tolerance-summary table columns ↔ robustness-group fields.
_ROW_FIELDS = (
    "random_survival",
    "attack_survival",
    "random_critical",
    "attack_critical",
    "molloy_reed_fc",
)


def run_a3(
    n: int = 1200,
    max_fraction: float = 0.5,
    steps: int = 15,
    seed: int = 29,
    models: Union[None, list, Mapping] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    journal: Optional[str] = None,
    profile_dir: Optional[str] = None,
) -> ExperimentResult:
    """Random vs targeted removal sweeps per model.

    *models* is a list of roster names or a label → generator mapping
    (how tests inject failing generators).  The summary table's sweep
    scalars use the battery's fixed robustness shape (cache-comparable
    with T5); *max_fraction*/*steps*/*seed* control the plotted
    trajectory series.
    """
    result = ExperimentResult(
        experiment_id="A3", title="Attack and failure tolerance"
    )
    if isinstance(models, Mapping):
        selection = dict(models)
    else:
        roster = standard_roster(n)
        names = models if models is not None else list(_DEFAULT_MODELS)
        selection = {name: roster[name] for name in names}

    with stage("A3", "battery", n=n, jobs=jobs):
        battery = run_battery(
            selection,
            n=n,
            seeds=1,
            base_seed=seed,
            jobs=jobs,
            cache=cache_dir,
            groups=("robustness",),
            timeout=timeout,
            retries=retries,
            journal=journal,
            profile_dir=profile_dir,
        )
    with stage("A3", "reference", n=n):
        reference_graph = reference_as_map(n)
        reference_values = compute_metric_groups(
            reference_graph, ("robustness",), seed=0
        )["robustness"]

    def add_series(name, graph):
        gc = giant_component(graph)
        random_run = percolation_sweep(
            gc, AttackStrategy.RANDOM, max_fraction=max_fraction,
            steps=steps, seed=seed,
        )
        attack_run = percolation_sweep(
            gc, AttackStrategy.DEGREE, max_fraction=max_fraction,
            steps=steps, seed=seed,
        )
        result.add_series(f"{name} random (removed, giant)", random_run.as_points())
        result.add_series(f"{name} targeted (removed, giant)", attack_run.as_points())

    rows = [["reference"] + [reference_values[key] for key in _ROW_FIELDS]]
    with stage("A3", "series", models=len(selection)):
        add_series("reference", reference_graph)
        for entry in battery.entries:
            summary = entry.summaries[0]
            rows.append(
                [entry.model] + [summary.get(key) for key in _ROW_FIELDS]
            )
            if getattr(summary, "failed", False):
                continue  # contained: no graph to sweep, row keeps its NaNs
            graph = selection[entry.model].generate(n, seed=entry.seeds[0])
            add_series(entry.model, graph)

    result.add_table(
        "tolerance summary",
        ["model", "giant after random", "giant after attack",
         "critical frac (random)", "critical frac (attack)",
         "Molloy-Reed f_c"],
        rows,
    )
    if battery.failures:
        result.add_table("failed battery units", *battery.failure_table())
    by_name = {row[0]: row for row in rows}
    result.notes["reference_random_survival"] = by_name["reference"][1]
    result.notes["reference_attack_survival"] = by_name["reference"][2]
    if "erdos-renyi" in by_name:
        result.notes["er_attack_survival"] = by_name["erdos-renyi"][2]
    result.notes["battery_failures"] = len(battery.failures)
    result.notes["cache_hits"] = battery.stats.hits
    result.notes["cache_misses"] = battery.stats.misses
    return result
