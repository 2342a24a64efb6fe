"""Parameter calibration: fit a generator to a target topology.

The "make a living" test for a model: can its parameters be tuned so the
full metric battery matches an observed map?  :func:`grid_calibrate` does
the honest version — exhaustive grid search with seed-averaged scores —
which is what the original generator papers did (GLP's published
parameters, for example, came from exactly this kind of fit).  Every
topology it scores takes the battery's cell pipeline (:func:`plan_cells`
→ :func:`unit_task` → :meth:`WorkerPool.run` → :func:`settle_unit`), so
one failing topology costs its grid point alone, at any ``jobs``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from ..generators.base import TopologyGenerator
from ..obs.tracer import get_tracer
from .battery import SUMMARIZE_DEFAULTS, plan_cells, pool_for, settle_unit, unit_task
from .cache import NullCache
from .compare import compare_summaries
from .experiment import seed_sequence
from .metrics import METRIC_GROUPS, TopologySummary

__all__ = ["CalibrationResult", "grid_calibrate"]


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of one calibration run."""

    best_params: Dict[str, Any]
    best_score: float
    trials: Tuple[Tuple[Dict[str, Any], float], ...]

    def top(self, count: int = 5) -> List[Tuple[Dict[str, Any], float]]:
        """The *count* best (params, score) pairs, ascending score."""
        return sorted(self.trials, key=lambda pair: pair[1])[:count]


def grid_calibrate(
    generator_factory: Callable[..., TopologyGenerator],
    param_grid: Mapping[str, Sequence[Any]],
    target: TopologySummary,
    n: int,
    seeds: int = 3,
    base_seed: int = 11,
    jobs: int = 1,
) -> CalibrationResult:
    """Exhaustive grid search minimizing the comparison score vs *target*.

    *generator_factory* is called here, with one keyword per grid axis; a
    point whose factory raises ``ValueError``/``RuntimeError`` (an invalid
    combination) is skipped.  Each other point is scored as the mean
    comparison score over *seeds* independent topologies of size *n*,
    each one ``full`` battery unit run by
    :meth:`~repro.core.battery.WorkerPool.run`: in this process at *jobs*
    = 1, else on *jobs* worker processes (start method: env
    ``REPRO_MP_START``).  Only the generators are pickled, never the
    factory, and the transport does not apply.  A unit that raises skips
    its point.  A dead worker is charged to nobody: the pool is rebuilt
    and the round's uncollected units re-run one at a time, so only a
    unit that kills a pool running it alone skips its point.  A grid
    with no point left raises.
    Trials are bit-identical in the same order at every *jobs*.  Traced
    calibrations adopt every unit's span tree under ``calibrate``.
    """
    if not param_grid:
        raise ValueError("param_grid must have at least one axis")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    trc = get_tracer()
    axes = sorted(param_grid)
    combos = list(itertools.product(*(param_grid[a] for a in axes)))
    with trc.span("calibrate", points=len(combos), n=n, jobs=jobs) as cal_span:
        points = []
        for combo in combos:
            params = dict(zip(axes, combo))
            try:
                generator = generator_factory(**params)
            except (ValueError, RuntimeError):
                continue
            point_plans = [
                plan_cells(
                    generator, n, seed, METRIC_GROUPS, SUMMARIZE_DEFAULTS,
                    label=generator.describe(),
                )
                for seed in seed_sequence(base_seed, seeds)
            ]
            points.append((params, point_plans))
        plans = [plan for _, point_plans in points for plan in point_plans]
        tasks = [
            unit_task(plan, tuple(METRIC_GROUPS), SUMMARIZE_DEFAULTS, trace=trc.enabled)
            for plan in plans
        ]
        pool = pool_for(jobs)
        try:
            outcomes = pool.run(tasks)
        finally:
            pool.shutdown()
        cache = NullCache()
        for plan, outcome in zip(plans, outcomes):
            spans = (outcome.extras or {}).get("spans")
            if trc.enabled and spans:
                trc.adopt(spans, parent=cal_span)
            settle_unit(plan, outcome, cache)
    trials: List[Tuple[Dict[str, Any], float]] = []
    for params, point_plans in points:
        if any(plan.error for plan in point_plans):
            continue
        scores = [
            compare_summaries(
                TopologySummary.from_dict(plan.label, plan.merged()), target
            ).score
            for plan in point_plans
        ]
        trials.append((params, sum(scores) / len(scores)))
    if not trials:
        errors = [plan.error for plan in plans if plan.error]
        detail = f": {errors[0].strip().splitlines()[-1]}" if errors else ""
        raise ValueError(f"every grid point failed to generate{detail}")
    best_params, best_score = min(trials, key=lambda pair: pair[1])
    return CalibrationResult(
        best_params=dict(best_params),
        best_score=best_score,
        trials=tuple(trials),
    )
