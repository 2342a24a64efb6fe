"""Experiment T5 — the robustness & redundancy ranking table.

Zhou & Mondragón's question, asked of every roster model at once: does the
topology *survive* like the measured AS map does?  Each model × replicate
runs the ``robustness`` metric group — random-failure and adaptive-degree
percolation sweeps, sampled path inflation, the link-redundancy and
shortcut fingerprints, and the Molloy–Reed collapse prediction — through
the parallel/cached/journaled battery runner (one ``metric.robustness``
span and cache cell per unit), and models are ranked by seed-averaged
divergence from the reference map's own robustness bundle.

Expected shape: the heavy-tailed growth models reproduce the map's
signature asymmetry (random failure survived, hub attack fatal within the
first ~10–20% of removals) and rank well; ER/Waxman degrade gracefully
under both — robust where the map is fragile, which is still a mismatch —
and rank poorly despite their "good" attack survival.

The percolation sweeps run as reverse union-find over each topology's
CSR view.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence, Union

from ..core.battery import run_battery
from ..core.metrics import EXTRA_METRIC_GROUPS, compute_metric_groups
from ..datasets.asmap import reference_as_map
from .base import ExperimentResult, stage
from .rosters import ROSTER_ORDER, standard_roster

__all__ = ["run_t5"]

#: The scalar fields of the battery's ``robustness`` group, in table order.
ROBUSTNESS_FIELDS = EXTRA_METRIC_GROUPS["robustness"]


def _mean_values(summaries) -> Dict[str, float]:
    """Seed-averaged robustness bundle over the surviving replicates.

    NaN is data here (``random_critical`` is NaN when the sweep never
    collapses), so each field averages its non-NaN replicate values and is
    NaN only when every replicate agrees there is nothing to measure.
    """
    out: Dict[str, float] = {}
    for key in ROBUSTNESS_FIELDS:
        values = [
            s.get(key)
            for s in summaries
            if not getattr(s, "failed", False) and not math.isnan(s.get(key))
        ]
        out[key] = sum(values) / len(values) if values else float("nan")
    return out


def _divergence(model_values: Mapping[str, float], reference: Mapping[str, float]) -> float:
    """Mean relative distance from the reference bundle, NaN-aware.

    Agreeing that a quantity is unmeasurable (both NaN — e.g. neither
    collapses under random failure) is a *match* (distance 0); disagreeing
    about measurability costs a full unit, the same penalty scale as a
    100% relative error.
    """
    total = 0.0
    for key in ROBUSTNESS_FIELDS:
        model_value = model_values.get(key, float("nan"))
        reference_value = reference[key]
        if math.isnan(reference_value) and math.isnan(model_value):
            distance = 0.0
        elif math.isnan(reference_value) or math.isnan(model_value):
            distance = 1.0
        else:
            scale = max(abs(reference_value), 1e-9)
            distance = abs(model_value - reference_value) / scale
        total += distance
    return total / len(ROBUSTNESS_FIELDS)


def _normalize_selection(models, n: int):
    """Accepted model specs → ordered label → generator mapping.

    ``models`` may be None (the full 12-model roster), a comma-separated
    string of roster/registry names (what ``--param models=a,b`` passes),
    a sequence of names, or a mapping label → generator (how tests inject
    failing generators).
    """
    if isinstance(models, Mapping):
        return dict(models)
    roster = standard_roster(n)
    if models is None:
        names: Sequence[str] = ROSTER_ORDER
    elif isinstance(models, str):
        names = [name.strip() for name in models.split(",") if name.strip()]
    else:
        names = list(models)
    if not names:
        raise ValueError("no models selected")
    out = {}
    for name in names:
        if name not in roster:
            known = ", ".join(ROSTER_ORDER)
            raise KeyError(f"unknown roster model {name!r}; available: {known}")
        out[name] = roster[name]
    return out


def run_t5(
    n: int = 1500,
    seeds: int = 2,
    base_seed: int = 23,
    models: Union[None, str, Sequence[str], Mapping] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    journal: Optional[str] = None,
    profile_dir: Optional[str] = None,
) -> ExperimentResult:
    """Rank the roster by robustness divergence from the reference map.

    All battery knobs behave as in T1: *jobs* fans the (model, replicate)
    units over worker processes, *cache_dir* makes every robustness cell
    content-addressed and reusable, *timeout*/*retries* contain and re-try
    failing units (a dead unit is reported, not fatal), *journal* appends
    the JSONL event log.  Results are bit-identical for every combination.
    """
    result = ExperimentResult(
        experiment_id="T5",
        title="Robustness & redundancy ranking vs reference AS map",
    )
    selection = _normalize_selection(models, n)
    with stage("T5", "reference", n=n):
        reference = compute_metric_groups(
            reference_as_map(n), ("robustness",), seed=0
        )["robustness"]
    with stage("T5", "battery", n=n, seeds=seeds, jobs=jobs):
        battery = run_battery(
            selection,
            n=n,
            seeds=seeds,
            base_seed=base_seed,
            jobs=jobs,
            cache=cache_dir,
            groups=("robustness",),
            timeout=timeout,
            retries=retries,
            journal=journal,
            profile_dir=profile_dir,
        )

    with stage("T5", "tables"):
        headers = ["model"] + list(ROBUSTNESS_FIELDS) + ["score"]
        scored = []
        rows = [["reference"] + [reference[key] for key in ROBUSTNESS_FIELDS] + [0.0]]
        for entry in battery.entries:
            survivors = [
                s for s in entry.summaries if not getattr(s, "failed", False)
            ]
            means = _mean_values(entry.summaries)
            score = _divergence(means, reference) if survivors else float("nan")
            scored.append((entry.model, score))
            rows.append(
                [entry.model]
                + [means[key] for key in ROBUSTNESS_FIELDS]
                + [score]
            )
        result.add_table(
            "robustness battery (seed-averaged, vs reference)", headers, rows
        )
        ranking = sorted(scored, key=lambda pair: (math.isnan(pair[1]), pair[1]))
        result.add_table(
            "T5 ranking (closest to reference first)",
            ["model", "score"],
            [[name, score] for name, score in ranking],
        )
        result.add_table(
            "battery telemetry (per model × metric group)",
            *battery.timing_table(),
        )
        if battery.failures:
            result.add_table("failed battery units", *battery.failure_table())

    for position, (name, score) in enumerate(ranking, start=1):
        result.notes[f"rank_{position:02d}_{name}"] = score
    for key in ROBUSTNESS_FIELDS:
        result.notes[f"reference_{key}"] = reference[key]
    result.notes["battery_jobs"] = battery.jobs
    result.notes["battery_elapsed_s"] = round(battery.elapsed, 3)
    result.notes["battery_compute_s"] = round(battery.compute_seconds, 3)
    result.notes["battery_failures"] = len(battery.failures)
    result.notes["cache_hits"] = battery.stats.hits
    result.notes["cache_misses"] = battery.stats.misses
    return result
