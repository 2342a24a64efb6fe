"""Experiment T1 — the generator comparison table.

The Bu–Towsley-style shoot-out: every roster model vs the reference AS map
across the scalar battery, with seed-averaged divergence scores.  Expected
shape: the weighted-growth and feedback models (serrano, pfp, glp) score
best; plain BA misses clustering and core depth; PLRG/Inet match the tail
but not the correlations; ER/Waxman/transit-stub trail the field with no
heavy tail at all.

Since the battery-runner refactor this harness is a thin shell over
:func:`repro.core.compare_models`: pass ``jobs=N`` to fan the model ×
replicate × metric-group cells over worker processes and ``cache_dir`` to
reuse computed cells across runs — both leave every reported number
bit-identical.  Battery telemetry (wall clock, cache hits/misses) lands in
the result's notes and telemetry table.
"""

from __future__ import annotations

from typing import Optional

from ..core.battery import compare_models
from .base import ExperimentResult, stage
from .rosters import ROSTER_ORDER, standard_roster

__all__ = ["run_t1"]


def run_t1(
    n: int = 2000,
    seeds: int = 3,
    base_seed: int = 21,
    models: Optional[list] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    journal: Optional[str] = None,
    profile_dir: Optional[str] = None,
    transport: str = "auto",
) -> ExperimentResult:
    """Score every roster model against the reference map.

    *timeout* / *retries* bound and re-attempt individual battery units;
    a unit that still fails is recorded (failure table + notes) and its
    model is scored over the surviving replicates rather than aborting
    the whole comparison.  *journal* appends a JSONL event log of the run.
    *transport* selects how topologies reach the metric workers
    (``auto``/``regenerate``/``shared``, see
    :mod:`repro.core.transport`); numbers are identical across
    transports.
    """
    result = ExperimentResult(
        experiment_id="T1",
        title="Generator comparison vs reference AS map",
    )
    roster = standard_roster(n)
    selected = models if models is not None else ROSTER_ORDER
    with stage("T1", "battery", n=n, seeds=seeds, jobs=jobs):
        comparison = compare_models(
            {name: roster[name] for name in selected},
            n=n,
            seeds=seeds,
            base_seed=base_seed,
            jobs=jobs,
            cache=cache_dir,
            timeout=timeout,
            retries=retries,
            journal=journal,
            profile_dir=profile_dir,
            transport=transport,
        )
    reference_summary = comparison.target

    def _summary_row(name, summary, score, spread):
        return [
            name,
            summary.average_degree,
            summary.average_path_length,
            summary.average_clustering,
            summary.assortativity,
            summary.max_degree,
            summary.degree_exponent,
            summary.degeneracy,
            score,
            spread,
        ]

    with stage("T1", "tables"):
        rows = [
            _summary_row(score.model, score.last_summary, score.mean, score.spread)
            for score in comparison.scores
            if score.summaries  # a model whose every replicate failed has none
        ]
    target_row = _summary_row("reference", reference_summary, 0.0, 0.0)
    result.add_table(
        "model comparison (last-seed metrics, seed-averaged score)",
        ["model", "<k>", "<l>", "c", "r", "k_max", "gamma", "core", "score", "spread"],
        [target_row] + rows,
    )
    ranking = comparison.ranking()
    result.add_table("ranking (best first)", ["model", "score"], ranking)
    battery = comparison.battery
    result.add_table(
        "battery telemetry (per model × metric group)", *battery.timing_table()
    )
    if battery.failures:
        result.add_table("failed battery units", *battery.failure_table())
    for position, (name, score) in enumerate(ranking, start=1):
        result.notes[f"rank_{position:02d}_{name}"] = score
    result.notes["battery_jobs"] = battery.jobs
    result.notes["battery_transport"] = battery.transport
    result.notes["battery_elapsed_s"] = round(battery.elapsed, 3)
    result.notes["battery_compute_s"] = round(battery.compute_seconds, 3)
    result.notes["battery_failures"] = len(battery.failures)
    result.notes["cache_hits"] = battery.stats.hits
    result.notes["cache_misses"] = battery.stats.misses
    return result
