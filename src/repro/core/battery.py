"""Parallel, content-addressed, fault-tolerant metric-battery runner.

The validation battery — every model × replicate × metric group scored
against a target map — is embarrassingly parallel and completely
deterministic, so this module runs it that way:

* **decomposition** — under the default ``regenerate`` transport, one
  work unit per (model, replicate): each unit generates its topology
  once and computes only the metric *groups* not already cached (see
  :data:`repro.core.metrics.METRIC_GROUPS`).  Under the ``shared``
  transport (see :mod:`repro.core.transport`), generation becomes its
  own journaled/cached unit per (model, seed) — published once as a
  zero-copy snapshot that workers attach read-only — and each pending
  metric group becomes an independent unit, so exact-paths-heavy
  replicates parallelize group-by-group and retries/resumes never pay
  generation twice;
* **determinism** — each unit's seed is :func:`repro.stats.rng.derive_seed`
  of (model identity, params, n, base seed, replicate index), a pure
  function independent of scheduling, so results are bit-identical at any
  ``jobs`` value and on warm vs. cold cache;
* **caching** — every (model, params, n, seed, group, code-version) cell is
  stored in a :class:`repro.core.cache.ResultCache`; re-running an
  experiment, adding replicates, or re-scoring against a new target skips
  every already-computed cell (cache probes and writes happen only in the
  parent process, so workers never race on files);
* **fault containment** — one loop, :meth:`WorkerPool.run`, owns
  submission, retries, timeouts and journal events at every ``jobs``
  (jobs=1 runs it in process).  Units are submitted individually, never
  via ``pool.map``: one crashing generator, one metric exception, one
  unit blowing its ``timeout``, even one worker process dying outright,
  costs exactly that unit (after up to ``retries`` re-attempts).  The
  failed replicate becomes a :class:`UnitRecord` with
  ``status="failed"`` (or ``"timeout"``) carrying the traceback, its
  entry keeps a :class:`~repro.core.metrics.PartialSummary` for the gap,
  every other unit's results survive, and — with a cache — re-running
  the same command recomputes only the failed cells;
* **observability** — the run threads through :mod:`repro.obs`: a
  hierarchical span tree (``battery`` → ``unit`` → ``generate`` /
  ``metric.<group>``, exportable as a Chrome trace), ambient metrics
  counters reconciling with the returned telemetry, per-unit peak RSS and
  CPU time sampled in the workers, an optional per-unit ``cProfile`` dump
  (*profile_dir*), and an optional
  :class:`repro.core.journal.RunJournal` recording one run-stamped JSONL
  event per unit start/finish/retry/failure and per cache hit.

:func:`run_battery` produces per-replicate summaries plus per-unit timing
and cache telemetry; :func:`compare_models` layers target scoring on top
(the engine behind experiment T1 and the ``repro battery`` CLI command).

The battery in batch and :mod:`repro.serve` per request run one **cell
pipeline**: :func:`plan_cells`, :func:`probe_cells` (one cache read per
group), :func:`topology_task` (a spool hit or the generate unit that
publishes it), :func:`unit_task` units run by :meth:`WorkerPool.run`,
and :func:`settle_unit` (adopt the topology, write the cells).  Served
and battery cells for the same inputs are one cache entry by construction.
"""

from __future__ import annotations

import math
import os
import signal
import threading
import time
import traceback
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..generators.base import TopologyGenerator
from ..graph.graph import Graph
from ..obs.metrics import MetricsRegistry, diff_snapshots, get_registry, set_registry
from ..obs.profiler import profile_unit
from ..obs.sampler import ResourceSampler
from ..obs.tracer import Tracer, get_tracer, set_tracer
from ..stats.rng import derive_seed
from .cache import CacheStats, NullCache, ResultCache, canonical_key
from .compare import ComparisonResult, compare_summaries
from .journal import JournalLike, NullJournal, RunJournal, resolve_journal
from .metrics import (
    ALL_METRIC_GROUPS,
    METRIC_GROUPS,
    METRICS_VERSION,
    PartialSummary,
    TopologySummary,
    compute_metric_groups,
    summarize,
)
from .registry import resolve_generator
from .report import format_table, shorten
from .transport import (
    SharedGraphHandle,
    SnapshotSpool,
    attach_view,
    forced_transport,
    publish_graph,
    resolve_mp_context,
    resolve_transport,
)

__all__ = [
    "UnitRecord",
    "BatteryEntry",
    "BatteryResult",
    "ModelScore",
    "ComparisonBattery",
    "run_battery",
    "compare_models",
]

CacheLike = Union[None, str, Path, ResultCache, NullCache]

#: The summarize() defaults of every battery cell: the one definition
#: behind run_battery's and compare_models' keyword defaults and the
#: service's cells, so served and batch cells share keys.
SUMMARIZE_DEFAULTS: Mapping[str, int] = MappingProxyType(
    {"path_sample_threshold": 1500, "path_samples": 400, "min_tail": 50}
)

#: Which summarize() parameters each metric group actually depends on;
#: cache keys embed only these, so e.g. changing ``path_samples`` does not
#: invalidate cached clustering cells.
_GROUP_PARAM_KEYS: Dict[str, Tuple[str, ...]] = {
    "paths": ("path_sample_threshold", "path_samples"),
    "tail": ("min_tail",),
}


@dataclass(frozen=True)
class UnitRecord:
    """Telemetry for one battery cell, shared pass, or unit failure.

    ``group`` is a metric group name for computed/cached cells,
    ``"generate"`` for topology construction, ``"giant"`` for the shared
    giant-component extraction, or ``"unit"`` for a whole-unit failure
    record.  ``status`` is ``"ok"`` for successful records and
    ``"failed"``/``"timeout"`` for failures, whose ``error`` carries the
    worker traceback (or timeout diagnostic).  The per-unit resource
    sample — worker peak RSS and the unit's CPU seconds — rides on the
    ``"generate"`` record (one per computed unit).
    """

    model: str
    replicate: int
    group: str
    seed: int
    cached: bool
    seconds: float
    status: str = "ok"
    error: Optional[str] = None
    max_rss_kb: Optional[float] = None
    cpu_seconds: Optional[float] = None


@dataclass(frozen=True)
class BatteryEntry:
    """One model's battery output: a summary per replicate.

    Replicates that completed the full group set hold a
    :class:`TopologySummary`; deliberately-partial batteries and failed
    units hold a :class:`~repro.core.metrics.PartialSummary` (never
    ``None``) whose ``missing``/``error`` fields say exactly what is
    absent and why.
    """

    model: str
    params: Dict[str, Any]
    seeds: Tuple[int, ...]
    summaries: Tuple[Union[TopologySummary, PartialSummary], ...]


@dataclass
class BatteryResult:
    """Everything one :func:`run_battery` call produced."""

    entries: List[BatteryEntry]
    records: List[UnitRecord]
    stats: CacheStats
    jobs: int
    elapsed: float
    #: This run's ambient-metrics delta (counters/gauges/histograms, see
    #: :func:`repro.obs.metrics.diff_snapshots`); counters here reconcile
    #: with the record lists above at any ``jobs`` value.
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: The journal run id this battery's events were stamped with.
    run_id: Optional[str] = None
    #: The resolved graph transport this run used (``"regenerate"`` or
    #: ``"shared"``); a scheduling detail — results and cache cells are
    #: bit-identical either way.
    transport: str = "regenerate"

    def entry(self, model: str) -> BatteryEntry:
        """Look up one model's entry by label."""
        for item in self.entries:
            if item.model == model:
                return item
        raise KeyError(f"model {model!r} not in battery result")

    def summaries(self, model: str) -> Tuple[Union[TopologySummary, PartialSummary], ...]:
        """One model's per-replicate summaries."""
        return self.entry(model).summaries

    @property
    def failures(self) -> List[UnitRecord]:
        """Records of units that failed or timed out (empty when clean)."""
        return [rec for rec in self.records if rec.status != "ok"]

    @property
    def compute_seconds(self) -> float:
        """Total seconds spent computing (excludes cache hits; sums over
        workers, so it can exceed ``elapsed`` when ``jobs > 1``)."""
        return sum(
            r.seconds for r in self.records if not r.cached and r.status == "ok"
        )

    def timing_table(self) -> Tuple[List[str], List[List[Any]]]:
        """Aggregate telemetry rows: per (model, group) computed/cached
        cell counts and compute seconds (failures are excluded here and
        reported by :meth:`failure_table`)."""
        agg: Dict[Tuple[str, str], List[float]] = {}
        for rec in self.records:
            if rec.status != "ok":
                continue
            cell = agg.setdefault((rec.model, rec.group), [0, 0, 0.0])
            if rec.cached:
                cell[1] += 1
            else:
                cell[0] += 1
                cell[2] += rec.seconds
        headers = ["model", "group", "computed", "cached", "seconds"]
        rows = [
            [model, group, computed, cached, seconds]
            for (model, group), (computed, cached, seconds) in sorted(agg.items())
        ]
        return headers, rows

    def failure_table(self) -> Tuple[List[str], List[List[Any]]]:
        """One row per failed unit: replicate identity, status, and the
        exception message (last traceback line, ellipsized)."""
        headers = ["model", "replicate", "seed", "status", "error"]
        rows = []
        for rec in self.failures:
            message = ""
            if rec.error:
                lines = [ln for ln in rec.error.strip().splitlines() if ln.strip()]
                message = shorten(lines[-1]) if lines else ""
            rows.append([rec.model, rec.replicate, rec.seed, rec.status, message])
        return headers, rows

    def resource_table(self) -> Tuple[List[str], List[List[Any]]]:
        """Per-model resource aggregate from the workers' rusage samples:
        computed units, peak RSS (KB, max over units), CPU seconds (sum).
        Empty when every unit was cached (nothing ran, nothing sampled)."""
        agg: Dict[str, List[float]] = {}
        for rec in self.records:
            if rec.group != "generate" or rec.max_rss_kb is None:
                continue
            cell = agg.setdefault(rec.model, [0, 0.0, 0.0])
            cell[0] += 1
            cell[1] = max(cell[1], rec.max_rss_kb)
            cell[2] += rec.cpu_seconds or 0.0
        headers = ["model", "units", "peak_rss_kb", "cpu_seconds"]
        rows = [
            [model, int(units), peak, round(cpu, 4)]
            for model, (units, peak, cpu) in sorted(agg.items())
        ]
        return headers, rows

    def render_timing(self) -> str:
        """Telemetry as an aligned text table (for reports and logs),
        followed by a failed-units table when any unit failed."""
        headers, rows = self.timing_table()
        table = format_table(headers, rows, title="battery telemetry")
        footer = (
            f"jobs={self.jobs} elapsed={self.elapsed:.3f}s "
            f"compute={self.compute_seconds:.3f}s cache[{self.stats}]"
        )
        parts = [table, footer]
        if self.failures:
            parts.append("")
            parts.append(
                format_table(*self.failure_table(), title="failed units")
            )
        return "\n".join(parts)


@dataclass(frozen=True)
class ModelScore:
    """One model's divergence from the target, over surviving replicates.

    Failed replicates are excluded (with a warning at scoring time), so
    ``scores``/``summaries`` may be shorter than the requested replicate
    count; a model whose every replicate failed has no scores and a NaN
    mean.
    """

    model: str
    scores: Tuple[float, ...]
    comparisons: Tuple[ComparisonResult, ...]
    summaries: Tuple[TopologySummary, ...]

    @property
    def mean(self) -> float:
        """Seed-averaged divergence score (the ranking statistic); NaN
        when no replicate survived."""
        if not self.scores:
            return float("nan")
        return sum(self.scores) / len(self.scores)

    @property
    def spread(self) -> float:
        """Max − min score across replicates (0 for a single replicate)."""
        return (max(self.scores) - min(self.scores)) if len(self.scores) > 1 else 0.0

    @property
    def last_summary(self) -> TopologySummary:
        """The final surviving replicate's summary (what the T1 table
        prints); raises ``IndexError`` when no replicate survived."""
        return self.summaries[-1]


@dataclass
class ComparisonBattery:
    """Output of :func:`compare_models`: scored battery vs one target."""

    target: TopologySummary
    scores: List[ModelScore]
    battery: BatteryResult

    def score(self, model: str) -> ModelScore:
        """Look up one model's score block by label."""
        for item in self.scores:
            if item.model == model:
                return item
        raise KeyError(f"model {model!r} not in comparison")

    def ranking(self) -> List[Tuple[str, float]]:
        """(model, mean score) pairs, best (lowest) first; models with no
        surviving replicate rank last."""
        scored = [(s.model, s.mean) for s in self.scores]
        return sorted(
            scored,
            key=lambda pair: (math.isnan(pair[1]), pair[1]),
        )


def _resolve_cache(cache: CacheLike) -> Union[ResultCache, NullCache]:
    if cache is None:
        return NullCache()
    if isinstance(cache, (str, Path)):
        return ResultCache(cache)
    return cache


def _normalize_models(models) -> List[Tuple[str, TopologyGenerator]]:
    """Coerce the accepted model specs to an ordered (label, generator) list.

    Accepts a mapping label → name-or-generator, a sequence of names or
    generators, or a single name/generator.  Labels are mapping keys where
    given, else the generator's registry name.
    """
    if isinstance(models, (str, TopologyGenerator)):
        models = [models]
    out: List[Tuple[str, TopologyGenerator]] = []
    if isinstance(models, Mapping):
        items = [(label, resolve_generator(spec)) for label, spec in models.items()]
    else:
        items = []
        for spec in models:
            generator = resolve_generator(spec)
            items.append((generator.name or type(generator).__name__, generator))
    seen = set()
    for label, generator in items:
        if label in seen:
            raise ValueError(f"duplicate model label {label!r}")
        seen.add(label)
        out.append((label, generator))
    if not out:
        raise ValueError("no models given")
    return out


def _identity(generator: TopologyGenerator) -> Tuple[str, Dict[str, Any]]:
    """Cache/seed identity of a configured generator: registry name + params.

    Distinct roster labels with identical configuration (and vice versa)
    hash by *what they compute*, not what they're called, so renaming a
    table row never invalidates cached cells.
    """
    name = generator.name or type(generator).__name__
    return name, generator.params()


def replicate_seed(
    generator: TopologyGenerator, n: int, base_seed: int, replicate: int
) -> int:
    """The battery seed of *generator*'s *replicate*: a pure function of
    model identity, plain params (never the engine), *n*, *base_seed* and
    the replicate index, which served ``replicate`` requests share."""
    identity, params = _identity(generator)
    return derive_seed("battery-unit", identity, params, n, base_seed, replicate)


def cell_payload(
    identity: str,
    params: Mapping[str, Any],
    n: int,
    seed: int,
    group: str,
    sum_params: Mapping[str, Any],
) -> Dict[str, Any]:
    """Content-addressed identity of one battery cache cell.

    This is the canonical-key contract shared by every consumer of the
    :class:`~repro.core.cache.ResultCache` — the battery runner, and the
    serving layer's request coalescer (:mod:`repro.serve`), which keys
    in-flight requests on the same payloads so a served repeat is a cache
    hit and a concurrent identical request collapses onto one computation.
    """
    relevant = {key: sum_params[key] for key in _GROUP_PARAM_KEYS.get(group, ())}
    return {
        "kind": "battery-cell",
        "model": identity,
        "params": dict(params),
        "n": n,
        "seed": seed,
        "group": group,
        "group_params": relevant,
        "version": METRICS_VERSION,
    }


def generation_payload(
    identity: str,
    params: Mapping[str, Any],
    n: int,
    seed: int,
) -> Dict[str, Any]:
    """Content-addressed identity of one published topology snapshot.

    The same (model identity, params, n, seed) always maps to the same
    :class:`SnapshotSpool` key, and the battery and the service spool in
    the same place beside their cell store (:func:`cell_spool`), so a
    served request attaches a topology the battery generated (or vice
    versa) instead of regenerating it.
    """
    return {
        "kind": "battery-generation",
        "model": identity,
        "params": dict(params),
        "n": n,
        "seed": seed,
    }


@contextmanager
def _ambient_obs(tracer: Tracer):
    """Install *tracer* as the ambient one for a block (restored after),
    so instrumentation points anywhere in the call tree emit into it."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


# ------------------------------------------------------------ cell pipeline


@dataclass
class CellPlan:
    """One topology's way through the cell pipeline.

    ``cells`` maps group → (cache key, payload).  :func:`probe_cells`
    fills ``values`` and ``pending``; a spool hit or a settled generate
    unit sets ``handle``; a failed unit leaves its traceback in ``error``.
    """

    label: str
    generator: TopologyGenerator
    n: int
    seed: int
    replicate: Optional[int]
    cells: Dict[str, Tuple[str, Dict[str, Any]]]
    gen_key: str
    values: Dict[str, Dict[str, float]] = field(default_factory=dict)
    pending: Tuple[str, ...] = ()
    handle: Optional[SharedGraphHandle] = None
    error: Optional[str] = None

    def merged(self) -> Dict[str, float]:
        """The values of every group present, merged in plan order."""
        out: Dict[str, float] = {}
        for group in self.cells:
            out.update(self.values.get(group, {}))
        return out


def plan_cells(
    generator: TopologyGenerator,
    n: int,
    seed: int,
    groups: Sequence[str],
    sum_params: Mapping[str, Any],
    label: Optional[str] = None,
    replicate: Optional[int] = None,
) -> CellPlan:
    """Step 1: the cell keys and generation key of *generator* at (*n*,
    *seed*), on its ``cache_params`` (so only engine-sensitive generators
    key on the engine).  *label* (default: the model identity) and
    *replicate* name the plan in records, journal events and spans."""
    identity, _ = _identity(generator)
    params = generator.cache_params(n)
    cells = {}
    for group in groups:
        payload = cell_payload(identity, params, n, seed, group, sum_params)
        cells[group] = (canonical_key(payload), payload)
    gen_key = canonical_key(generation_payload(identity, params, n, seed))
    return CellPlan(
        label if label is not None else identity, generator, n, seed,
        replicate, cells, gen_key,
    )


def probe_cells(plan: CellPlan, cache: Union[ResultCache, NullCache]) -> List[str]:
    """Step 2: exactly one ``cache.get`` per planned group.  Hits land in
    ``plan.values``, misses in ``plan.pending``; returns the hit groups."""
    hits = []
    for group, (key, payload) in plan.cells.items():
        value = cache.get(key, payload)
        if value is not None:
            plan.values[group] = value
            hits.append(group)
    plan.pending = tuple(group for group in plan.cells if group not in plan.values)
    return hits


def cell_spool(cache: Union[ResultCache, NullCache]) -> SnapshotSpool:
    """The snapshot spool that goes with a cell store: persistent at
    ``<cache root>/snapshots`` for a :class:`ResultCache` (so battery runs
    and the service attach each other's topologies), else ephemeral."""
    return SnapshotSpool(
        cache.root / "snapshots" if isinstance(cache, ResultCache) else None
    )


def unit_task(
    plan: CellPlan,
    groups: Sequence[str] = (),
    sum_params: Optional[Mapping[str, Any]] = None,
    spool_path: Optional[str] = None,
    trace: bool = False,
    profile_dir: Union[None, str, Path] = None,
) -> Dict[str, Any]:
    """The one task protocol: a work unit for :meth:`WorkerPool.run`.

    The source is ``plan.handle`` to attach, else ``plan.generator`` to
    run; the unit publishes to *spool_path* when given and measures
    *groups*.  ``task["unit"]`` holds its journal fields, among them the
    label ``kind``: ``measure``, ``generate`` or ``full``.
    """
    if plan.handle is not None:
        kind, suffix = "measure", "-" + "-".join(groups)
    elif spool_path is not None:
        kind, suffix = "generate", "-gen"
    else:
        kind, suffix = "full", ""
    unit = {
        "model": plan.label, "replicate": plan.replicate,
        "seed": plan.seed, "kind": kind,
    }
    if kind == "measure" and len(groups) == 1:
        unit["group"] = groups[0]
    label = plan.label if plan.replicate is None else f"{plan.label}-rep{plan.replicate}"
    return {
        "unit": unit,
        "source": plan.handle if plan.handle is not None else plan.generator,
        "n": plan.n,
        "spool_path": spool_path,
        "groups": tuple(groups),
        "sum_params": dict(sum_params or {}),
        "obs": {"trace": trace, "profile_dir": profile_dir, "label": label + suffix},
    }


def topology_task(
    plan: CellPlan, spool: SnapshotSpool, **obs: Any
) -> Optional[Dict[str, Any]]:
    """Step 3: on a spool hit, set ``plan.handle`` (taking one spool
    reference) and return ``None``; else return the one generate unit that
    publishes the topology into *spool*.  *obs* goes to :func:`unit_task`."""
    plan.handle = spool.probe(plan.gen_key)
    if plan.handle is not None:
        return None
    return unit_task(plan, spool_path=str(spool.publish_path(plan.gen_key)), **obs)


def settle_unit(
    plan: CellPlan,
    outcome: "UnitOutcome",
    cache: Union[ResultCache, NullCache],
    spool: Optional[SnapshotSpool] = None,
) -> bool:
    """Steps 3–5 for one finished unit; returns whether it succeeded.

    Merges the worker's metrics into the ambient registry, adopts a
    published topology into *spool*, and writes each measured group's
    cell through *cache* and into ``plan.values``; a failure's traceback
    goes to ``plan.error`` (the first one wins).
    """
    extras = outcome.extras or {}
    if extras.get("metrics"):
        get_registry().merge(extras["metrics"])
    if outcome.status != "ok":
        plan.error = plan.error or outcome.error
        return False
    if "handle" in extras:
        spool.adopt(plan.gen_key, extras["handle"])
        plan.handle = extras["handle"]
    for group, value in outcome.values.items():
        key, payload = plan.cells[group]
        cache.put(key, value, payload)
        plan.values[group] = value
    return True


def _battery_task(task) -> UnitOutcome:
    """Worker kernel: one unit of the task protocol (see :func:`unit_task`).

    Generates ``task["source"]`` when it is a generator, else attaches
    the :class:`~repro.core.transport.SharedGraphHandle` as its shared
    :class:`~repro.graph.csr.CSRView` (served from this process's
    transport attach cache after the first touch; no :class:`Graph` is
    materialized, the metric groups read the view); publishes
    the topology at ``task["spool_path"]`` when one is named — the handle
    rides back in the obs payload under ``"handle"``; and computes
    ``task["groups"]``.

    Module-level and argument-pure so it pickles under any multiprocessing
    start method.  Installs a fresh ambient tracer and metrics registry
    for the unit's duration (identical behavior inline and in a pooled
    worker — no cross-unit bleed, no double counting) and samples rusage
    around the work.  Returns an ``"ok"`` :class:`UnitOutcome` whose
    ``seconds`` is the unit's own wall time, measured in the process that
    ran it, and whose ``extras`` carry the unit's span dicts, metrics
    snapshot and resource sample.
    """
    started = time.perf_counter()
    unit = task["unit"]
    source = task["source"]
    obs_conf = task["obs"]
    seed = unit["seed"]
    model = unit["model"]
    tracer = Tracer(enabled=bool(obs_conf["trace"]))
    registry = MetricsRegistry()
    prev_tracer = set_tracer(tracer)
    prev_registry = set_registry(registry)
    sampler = ResourceSampler().start()
    values: Dict[str, Dict[str, float]] = {}
    timings: Dict[str, float] = {}
    gen_seconds = 0.0
    handle = None
    try:
        with profile_unit(obs_conf["profile_dir"], obs_conf["label"]):
            with tracer.span(
                "unit", model=model, replicate=unit["replicate"],
                seed=seed, kind=unit["kind"],
            ):
                if isinstance(source, SharedGraphHandle):
                    topology = attach_view(source)
                else:
                    n = task["n"]
                    start = time.perf_counter()
                    with tracer.span("generate", model=model, n=n):
                        topology = source.generate(n, seed=seed)
                    gen_seconds = time.perf_counter() - start
                if task["spool_path"] is not None:
                    handle = publish_graph(
                        topology, task["spool_path"], name=model or ""
                    )
                if task["groups"]:
                    values, timings = compute_metric_groups(
                        topology, task["groups"], seed=seed, with_timings=True,
                        **task["sum_params"],
                    )
    finally:
        set_tracer(prev_tracer)
        set_registry(prev_registry)
    usage = sampler.stop()
    obs_payload = {
        "spans": [span.as_dict() for span in tracer.drain()],
        "metrics": registry.snapshot(),
        "rusage": usage.as_dict(),
    }
    if handle is not None:
        obs_payload["handle"] = handle
    return UnitOutcome(
        "ok", values=values, timings=timings, gen_seconds=gen_seconds,
        seconds=time.perf_counter() - started, worker=os.getpid(),
        extras=obs_payload,
    )


@dataclass(frozen=True)
class UnitOutcome:
    """One work unit's result: what :func:`_battery_task` returns for an
    attempt that ran, and what :meth:`WorkerPool.run` returns per unit
    after all attempts."""

    status: str  # "ok" | "failed" | "timeout"
    values: Optional[Dict[str, Dict[str, float]]] = None
    timings: Optional[Dict[str, float]] = None
    gen_seconds: float = 0.0
    seconds: float = 0.0
    worker: Optional[int] = None
    error: Optional[str] = None
    attempts: int = 1
    extras: Optional[Dict[str, Any]] = None


def _format_exception(exc: BaseException) -> str:
    return "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))


def _finish_fields(outcome: UnitOutcome) -> Dict[str, Any]:
    """Enriched unit_finish journal fields from a successful outcome:
    attempt, seconds, worker, generation seconds, per-group seconds, peak
    RSS, CPU seconds."""
    fields: Dict[str, Any] = {
        "attempt": outcome.attempts - 1,
        "seconds": round(outcome.seconds, 6),
        "worker": outcome.worker,
        "gen_seconds": round(outcome.gen_seconds, 6),
        "groups": {
            group: round(seconds, 6)
            for group, seconds in (outcome.timings or {}).items()
        },
    }
    rusage = (outcome.extras or {}).get("rusage") or {}
    if rusage:
        fields["max_rss_kb"] = rusage.get("max_rss_kb")
        fields["cpu_seconds"] = rusage.get("cpu_seconds")
    return fields


def _worker_checkin() -> int:
    # Hold the worker for a moment, so the other probes of a prewarm
    # round go to other idle workers instead of queueing behind this one.
    time.sleep(0.005)
    return os.getpid()


def _worker_ignore_sigint() -> None:
    # Pool workers share the terminal's process group, so a Ctrl-C aimed
    # at the battery CLI or `serve run` would also interrupt every worker
    # mid-recv and spray KeyboardInterrupt tracebacks over the shutdown
    # message.  The parent owns the pool's lifecycle; workers stay deaf
    # to SIGINT and exit when the parent shuts the executor down.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class WorkerPool:
    """A persistent handle on a battery worker pool.

    Wraps a lazily-built :class:`ProcessPoolExecutor` whose workers run
    :func:`_battery_task`, so the expensive part — spawning interpreter
    processes that then fill their per-process transport attach caches —
    is paid once and reused across battery waves, retry rounds, and (in
    the serving layer) across requests for the life of the service.

    * :meth:`run` is the containment loop, and the only place in the
      package that runs work in processes: the battery runs each wave
      and :func:`repro.core.calibrate.grid_calibrate` its grid through it
      at every ``jobs`` (jobs=1 on the in-process :class:`_InlinePool`,
      see :func:`pool_for`), and :class:`repro.serve.ServeDispatcher`
      each unit.
    * :meth:`submit` hands one task dict to a worker and returns its
      future.
    * :meth:`prewarm` builds the executor and blocks until every worker
      process is up; the first submit after a build or :meth:`rebuild`
      runs it, so no unit's clock covers worker start-up.
    * :meth:`rebuild` abandons a broken or hung pool without waiting for
      it; the next submit builds a fresh one.
    * :meth:`shutdown` releases the workers (idempotent).

    The handle itself is thread-safe for submits; result collection is
    the caller's business (futures are independent).  Workers start by
    the method :func:`~repro.core.transport.resolve_mp_context` resolves
    when the pool is made (env ``REPRO_MP_START``, else the platform
    default).
    """

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.mp_context = resolve_mp_context()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.RLock()
        self.rebuilds = 0

    @property
    def executor(self) -> ProcessPoolExecutor:
        """The live executor, built and prewarmed on first use
        (thread-safe)."""
        with self._lock:
            if self._executor is None:
                self.prewarm()
            return self._executor

    def prewarm(self) -> int:
        """Build the executor if needed, then block until every worker
        process is up; returns how many are.

        A worker's start-up (under ``spawn``: an interpreter start plus
        the ``repro`` import) would otherwise run inside the first units'
        per-unit timeout.  Rounds of pid probes run until every worker
        has answered one.
        """
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=self.mp_context,
                    initializer=_worker_ignore_sigint,
                )
            seen: set = set()
            while len(seen) < self.jobs:
                probes = [
                    self._executor.submit(_worker_checkin)
                    for _ in range(self.jobs)
                ]
                seen.update(probe.result() for probe in probes)
            return len(seen)

    def submit(self, task: Dict[str, Any]):
        """Submit one battery task dict; returns its future."""
        return self.executor.submit(_battery_task, task)

    def run(
        self,
        tasks: Sequence[Dict[str, Any]],
        timeout: Optional[float] = None,
        retries: int = 0,
        journal: JournalLike = None,
        on_rebuild=None,
    ) -> List[UnitOutcome]:
        """Run *tasks* (see :func:`unit_task`) with per-unit containment;
        returns one :class:`UnitOutcome` per task, in order.

        Every unit is submitted individually; an exception raised in a
        unit costs only its own unit.  A worker process dying outright
        (:class:`BrokenExecutor`) breaks the pool, and the executor cannot
        say which unit killed it: the pool is rebuilt, nobody is charged,
        and the round's units not yet collected re-run one at a time, so
        the death is charged only to a unit that breaks a pool running it
        alone.  One timeout rule holds at every
        ``jobs``: a unit whose own ``seconds`` exceed *timeout* is charged
        a timeout once its result arrives, and a process pool also stops
        waiting on a unit *timeout* seconds into its wait, abandoning it
        (its worker finishes in the background).  Failed or timed-out
        attempts are re-submitted after the rest of their round, up to
        *retries* times, before the unit is declared dead.  *journal*
        gets, per attempt, one ``unit_start`` at submission and then one
        ``unit_finish``, ``unit_retry`` or ``unit_fail``.

        A healthy pool survives retry rounds and late overruns — only a
        broken or hung pool is abandoned and rebuilt.  *on_rebuild* — when
        given — runs after each abandonment before the replacement is
        built; the shared transport reaps orphaned snapshot staging
        directories there.
        """
        log = resolve_journal(journal)
        registry = get_registry()
        pending: Dict[int, int] = {
            index: 0 for index in range(len(tasks))
        }  # index → attempts used
        outcomes: Dict[int, UnitOutcome] = {}
        # Units a broken pool had not returned; they run one per round.
        suspects: set = set()

        def charge(index: int, status: str, error: str, seconds: float) -> None:
            attempts = pending[index] + 1
            info = tasks[index]["unit"]
            if attempts > retries:
                outcomes[index] = UnitOutcome(
                    status, seconds=seconds, error=error, attempts=attempts
                )
                del pending[index]
                log.emit(
                    "unit_fail", status=status, attempts=attempts, error=error, **info
                )
            else:
                pending[index] = attempts
                registry.counter("battery.units.retried").inc()
                log.emit("unit_retry", attempt=attempts - 1, status=status, **info)

        while pending:
            broken = False
            hung = False
            suspects &= pending.keys()
            futures = {}
            for index in [min(suspects)] if suspects else sorted(pending):
                futures[index] = self.submit(tasks[index])
                log.emit(
                    "unit_start", attempt=pending[index], jobs=self.jobs,
                    **tasks[index]["unit"],
                )
            for collected, (index, future) in enumerate(futures.items()):
                waited = time.perf_counter()
                try:
                    outcome = future.result(timeout=timeout)
                except BrokenExecutor as exc:
                    # A worker died without raising (segfault, OOM-kill,
                    # os._exit): the whole pool is unusable.  A unit alone
                    # in its round killed it; otherwise no unit is charged,
                    # and the ones not yet collected re-run one per round
                    # in fresh pools, free of charge.
                    log.emit("pool_broken", error=repr(exc), in_flight=len(futures))
                    if len(futures) == 1:
                        charge(
                            index, "failed",
                            f"BrokenExecutor: worker process died abruptly "
                            f"while this unit ran alone in its round ({exc!r})",
                            time.perf_counter() - waited,
                        )
                    else:
                        suspects.update(list(futures)[collected:])
                    broken = True
                    break
                except Exception as exc:
                    # The wait ran out only if the future is still running:
                    # a unit that raised TimeoutError itself is done, and
                    # fails like any other exception.
                    if isinstance(exc, FuturesTimeout) and not future.done():
                        future.cancel()
                        hung = True
                        charge(
                            index, "timeout",
                            f"TimeoutError: unit did not finish within the "
                            f"{timeout}s per-unit timeout",
                            timeout,
                        )
                    else:
                        charge(
                            index, "failed", _format_exception(exc),
                            time.perf_counter() - waited,
                        )
                else:
                    if timeout is not None and outcome.seconds > timeout:
                        # Its result arrived (its wait began late, or it
                        # ran inline), but the unit itself overran.
                        charge(
                            index, "timeout",
                            f"TimeoutError: unit took {outcome.seconds:.3f}s, "
                            f"exceeding the {timeout}s per-unit timeout",
                            outcome.seconds,
                        )
                        continue
                    outcome = replace(outcome, attempts=pending.pop(index) + 1)
                    outcomes[index] = outcome
                    log.emit(
                        "unit_finish", **_finish_fields(outcome),
                        **tasks[index]["unit"],
                    )
            # Only a hung or broken pool is abandoned (without blocking on
            # it); a healthy pool is kept warm for the next retry round and
            # for whatever the caller runs next.
            if broken or hung:
                self.rebuild()
                if on_rebuild is not None:
                    on_rebuild()
        return [outcomes[index] for index in range(len(tasks))]

    def rebuild(self) -> None:
        """Abandon the current executor (broken or hung) without waiting.

        Queued-but-unstarted work is cancelled; in-flight workers finish
        (or die) in the background.  The next :meth:`submit` lazily builds
        a replacement pool.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
            self.rebuilds += 1

    def shutdown(self, wait: bool = True) -> None:
        """Release the worker processes (idempotent; safe if never built)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)


class _InlineFuture:
    """A unit submitted to :class:`_InlinePool`: it runs in the calling
    process when :meth:`WorkerPool.run` waits on it, so each unit's
    ``unit_finish`` is journaled as it ends."""

    def __init__(self, task: Dict[str, Any]):
        self.task = task

    def result(self, timeout: Optional[float] = None) -> UnitOutcome:
        return _battery_task(self.task)

    def done(self) -> bool:
        # Only asked after result() has run the unit.
        return True


class _InlinePool(WorkerPool):
    """The jobs=1 pool: :meth:`WorkerPool.run`'s loop over units run in
    the calling process.  Nothing is pickled, so generators that cannot
    be pickled still run.  No executor is ever built, so :meth:`rebuild`
    and :meth:`shutdown` have nothing to release."""

    def submit(self, task: Dict[str, Any]) -> _InlineFuture:
        return _InlineFuture(task)

    def prewarm(self) -> int:
        return 0


def pool_for(jobs: int) -> WorkerPool:
    """The pool a batch run uses at *jobs*: *jobs* worker processes, or at
    jobs=1 the in-process :class:`_InlinePool`."""
    return (WorkerPool if jobs > 1 else _InlinePool)(jobs)


def run_battery(
    models,
    n: int,
    seeds: int = 3,
    base_seed: int = 17,
    jobs: int = 1,
    cache: CacheLike = None,
    groups: Optional[Sequence[str]] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    journal: JournalLike = None,
    tracer: Optional[Tracer] = None,
    profile_dir: Union[None, str, Path] = None,
    path_sample_threshold: int = SUMMARIZE_DEFAULTS["path_sample_threshold"],
    path_samples: int = SUMMARIZE_DEFAULTS["path_samples"],
    min_tail: int = SUMMARIZE_DEFAULTS["min_tail"],
) -> BatteryResult:
    """Run the metric battery over *models* × *seeds* replicates.

    *models* may be a mapping label → generator/name, a sequence of
    generators or registry names, or a single one of either.  *jobs* > 1
    fans the work units out over a process pool; at *jobs* = 1 the same
    containment loop (:meth:`WorkerPool.run`) runs each unit in this
    process, so generators need not pickle; *cache* (a directory path
    or :class:`ResultCache`) makes every cell content-addressed and
    reusable across runs.  Results are bit-identical for any *jobs* value
    and for warm vs. cold cache — the per-unit seed depends only on the
    model identity, its parameters, *n*, *base_seed*, and the replicate
    index.

    Failures are contained, not fatal: a unit that raises, runs past
    *timeout* seconds, or loses its worker process is retried up to
    *retries* times and then recorded as a failed :class:`UnitRecord`
    (see :attr:`BatteryResult.failures`); its replicate's summary becomes
    a :class:`~repro.core.metrics.PartialSummary` carrying the traceback
    while every other unit's results are returned normally.  *journal*
    (a path or :class:`~repro.core.journal.RunJournal`) appends one JSONL
    event per unit start/finish/retry/failure and per cache hit, all
    stamped with a fresh ``run_id``.

    Observability: *tracer* (default: the ambient
    :func:`repro.obs.get_tracer`, disabled unless someone enabled it) is
    installed as ambient for the run and — when enabled — collects the
    full span tree, including the workers' unit/generate/metric spans;
    *profile_dir* turns on per-unit ``cProfile`` dumps there.  The run's
    counter deltas land in :attr:`BatteryResult.metrics` and reconcile
    with the returned records at any *jobs* value.

    The run resolves its transport once
    (:func:`~repro.core.transport.resolve_transport`: env
    ``REPRO_TRANSPORT``, else shared at large *n* with several groups)
    and its pool's start method once (env ``REPRO_MP_START``), and
    journals both in ``battery_start``.  Under ``shared``, each (model,
    seed) topology is generated in its own journaled unit, published once
    as a zero-copy snapshot — spooled beside the cell store when one is
    in play (:func:`cell_spool`), so later runs and the service attach
    instead of regenerating — and each pending metric group runs as an
    independent unit attaching read-only.  The transport is a pure
    scheduling choice: summaries are bit-identical and cache cells carry
    no trace of it.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive (or None)")
    started = time.perf_counter()
    spec = _normalize_models(models)
    group_names = tuple(groups) if groups is not None else tuple(METRIC_GROUPS)
    unknown_groups = [g for g in group_names if g not in ALL_METRIC_GROUPS]
    if unknown_groups:
        known = ", ".join(ALL_METRIC_GROUPS)
        raise KeyError(
            f"unknown metric group(s) {unknown_groups!r}; available: {known}"
        )
    store = _resolve_cache(cache)
    transport_used = resolve_transport(n, len(group_names))
    # One pool for the whole run: at jobs > 1 both waves (and every retry
    # round) reuse the same warm worker processes, so the per-process
    # transport attach caches stay hot across waves; at jobs=1 the same
    # loop runs each unit in this process.  Nothing starts until a submit.
    pool = pool_for(jobs)
    stats_before = store.stats.snapshot()
    registry = get_registry()
    registry_before = registry.snapshot()
    trc = tracer if tracer is not None else get_tracer()
    log = resolve_journal(journal)
    run_id = log.begin_run(
        {
            "models": [label for label, _ in spec],
            "n": n, "seeds": seeds, "base_seed": base_seed,
            "groups": list(group_names),
        }
    )
    log.emit(
        "battery_start",
        models=[label for label, _ in spec],
        n=n, seeds=seeds, jobs=jobs, groups=list(group_names),
        timeout=timeout, retries=retries, transport=transport_used,
        transport_forced=forced_transport() is not None,
        mp_start="inline" if jobs == 1 else pool.mp_context.get_start_method(),
    )
    registry.gauge("battery.jobs").set(jobs)
    sum_params = {
        "path_sample_threshold": path_sample_threshold,
        "path_samples": path_samples,
        "min_tail": min_tail,
    }
    obs = {"trace": trc.enabled, "profile_dir": profile_dir}

    with _ambient_obs(trc), trc.span(
        "battery", models=[label for label, _ in spec], n=n,
        seeds=seeds, jobs=jobs, run_id=run_id, transport=transport_used,
    ) as battery_span:
        # Shared transport publishes each generated topology once into the
        # spool that goes with the cell store — persistent beside a cache
        # directory (so later runs attach instead of regenerating),
        # ephemeral tmpfs otherwise.
        spool = cell_spool(store) if transport_used == "shared" else None
        records: List[UnitRecord] = []

        def record(plan: CellPlan, group: str, seconds: float, cached=False, **fields):
            cell = (plan.label, plan.replicate, group, plan.seed, cached, seconds)
            records.append(UnitRecord(*cell, **fields))

        def run_wave(units: List[Tuple[CellPlan, Dict[str, Any]]]) -> None:
            """Run (plan, task) units with containment, then take every
            outcome down the one path that records, counts, adopts and
            writes."""
            outcomes = pool.run(
                [task for _, task in units], timeout, retries, log,
                on_rebuild=spool.reap_staging if spool is not None else None,
            )
            for (plan, task), outcome in zip(units, outcomes):
                extras = outcome.extras or {}
                if trc.enabled and extras.get("spans"):
                    trc.adopt(extras["spans"], parent=battery_span)
                kind = task["unit"]["kind"]
                if not settle_unit(plan, outcome, store, spool):
                    registry.counter("battery.units.failed").inc()
                    record(
                        plan, task["unit"].get("group", "unit"), outcome.seconds,
                        status=outcome.status, error=outcome.error,
                    )
                    continue
                registry.counter("battery.units.completed").inc()
                registry.histogram("battery.unit.seconds").observe(outcome.seconds)
                if kind == "generate":
                    registry.counter("battery.generations.computed").inc()
                if kind != "measure":
                    rusage = extras.get("rusage") or {}
                    record(
                        plan, "generate", outcome.gen_seconds,
                        max_rss_kb=rusage.get("max_rss_kb"),
                        cpu_seconds=rusage.get("cpu_seconds"),
                    )
                if not task["groups"]:
                    continue
                registry.counter("battery.cells.computed").inc(len(task["groups"]))
                for group in ("giant",) + task["groups"]:
                    record(plan, group, outcome.timings[group])

        # Plan and probe every (model, replicate).  What misses the cache
        # needs its topology: a full unit under regenerate; under shared,
        # the generation is its own cached unit — a spool hit (this run or
        # a previous one sharing the cache directory) skips it entirely.
        plans: List[CellPlan] = []
        first_wave: List[Tuple[CellPlan, Dict[str, Any]]] = []
        for label, generator in spec:
            for rep in range(seeds):
                plan = plan_cells(
                    generator, n, replicate_seed(generator, n, base_seed, rep),
                    group_names, sum_params, label=label, replicate=rep,
                )
                plans.append(plan)
                for group in probe_cells(plan, store):
                    record(plan, group, 0.0, cached=True)
                    registry.counter("battery.cells.cached").inc()
                    log.emit(
                        "cache_hit", model=label, replicate=rep,
                        seed=plan.seed, group=group, key=plan.cells[group][0],
                    )
                if not plan.pending:
                    continue
                if spool is None:
                    task = unit_task(plan, plan.pending, sum_params, **obs)
                else:
                    task = topology_task(plan, spool, **obs)
                if task is not None:
                    first_wave.append((plan, task))
                    continue
                record(plan, "generate", 0.0, cached=True)
                registry.counter("battery.generations.cached").inc()
                log.emit(
                    "snapshot_hit", model=label, replicate=rep,
                    seed=plan.seed, key=plan.gen_key,
                )

        try:
            # Wave 1: the full units, or the shared transport's missed
            # generations — each publishes its topology into the spool and
            # hands back only a handle.  A failed generation fails its
            # whole replicate (no graph, nothing to measure).
            run_wave(first_wave)
            if spool is not None:
                # Wave 2: every pending metric group of every replicate
                # with a published topology becomes its own unit —
                # retries re-attach (a dict lookup after the first touch),
                # never regenerate, and a failure costs one group, not the
                # replicate.
                run_wave([
                    (plan, unit_task(plan, (group,), sum_params, **obs))
                    for plan in plans if plan.handle is not None
                    for group in plan.pending
                ])
                # Refcounted cleanup: each replicate took one reference at
                # probe/publish time; dropping it lets an ephemeral spool
                # unlink the snapshot immediately (persistent spools keep
                # theirs for the next run to attach).
                for plan in plans:
                    if plan.pending:
                        spool.release(plan.gen_key)
        finally:
            pool.shutdown(wait=True)
            if spool is not None:
                spool.cleanup()

        all_fields = {f for group_fields in METRIC_GROUPS.values() for f in group_fields}
        entries: List[BatteryEntry] = []
        for label, generator in spec:
            _, params = _identity(generator)
            model_plans = [plan for plan in plans if plan.label == label]
            summaries: List[Union[TopologySummary, PartialSummary]] = []
            for plan in model_plans:
                merged = plan.merged()
                if set(merged) == all_fields:
                    summaries.append(TopologySummary.from_dict(label, merged))
                else:
                    # Deliberately-partial batteries (subset groups, or extra
                    # groups beyond the TopologySummary scalars) and failed
                    # units both get an explicit partial summary, never None.
                    # ``missing`` is always relative to the full
                    # TopologySummary group set, so a partial summary says
                    # what a full summary would still need — extra groups
                    # (e.g. robustness) appear in ``groups``, never here.
                    present = tuple(g for g in group_names if g in plan.values)
                    missing = tuple(g for g in METRIC_GROUPS if g not in plan.values)
                    summaries.append(
                        PartialSummary(
                            name=label, values=merged, groups=present,
                            missing=missing, error=plan.error,
                        )
                    )
            entries.append(
                BatteryEntry(
                    model=label,
                    params=params,
                    seeds=tuple(plan.seed for plan in model_plans),
                    summaries=tuple(summaries),
                )
            )
    result = BatteryResult(
        entries=entries,
        records=records,
        stats=store.stats.delta(stats_before),
        jobs=jobs,
        elapsed=time.perf_counter() - started,
        metrics=diff_snapshots(registry.snapshot(), registry_before),
        run_id=run_id,
        transport=transport_used,
    )
    log.emit(
        "battery_end",
        elapsed=round(result.elapsed, 6),
        failures=len(result.failures),
        cache=result.stats.as_dict(),
    )
    return result


class _ReferenceMap(TopologyGenerator):
    """The frozen reference AS map as a parameterless generator, so its
    cells plan (and key) like any model's."""

    name = "__reference_as_map__"

    def generate(self, n, seed=None):
        from ..datasets.asmap import reference_as_map

        return reference_as_map(n)


def summarize_target(
    target,
    n: int,
    cache: Union[ResultCache, NullCache],
    sum_params: Mapping[str, Any],
) -> TopologySummary:
    """Resolve *target* (None → reference map; Graph; TopologySummary) to a
    summary.  The reference map takes the cell pipeline inline at seed 0,
    so its cells cache through the same store as the model cells."""
    if isinstance(target, TopologySummary):
        return target
    if isinstance(target, Graph):
        return summarize(target, seed=0, **sum_params)
    if target is not None:
        raise TypeError(
            f"target must be None, a Graph or a TopologySummary, "
            f"not {type(target).__name__}"
        )
    plan = plan_cells(_ReferenceMap(), n, 0, tuple(METRIC_GROUPS), sum_params)
    probe_cells(plan, cache)
    if plan.pending:
        graph = plan.generator.generate(n)
        computed = compute_metric_groups(graph, plan.pending, seed=0, **sum_params)
        settle_unit(plan, UnitOutcome("ok", values=computed), cache)
    return TopologySummary.from_dict("reference", plan.merged())


def compare_models(
    models,
    n: int,
    seeds: int = 3,
    base_seed: int = 21,
    target=None,
    metrics: Optional[Dict[str, Tuple[str, float]]] = None,
    jobs: int = 1,
    cache: CacheLike = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    journal: JournalLike = None,
    tracer: Optional[Tracer] = None,
    profile_dir: Union[None, str, Path] = None,
    path_sample_threshold: int = SUMMARIZE_DEFAULTS["path_sample_threshold"],
    path_samples: int = SUMMARIZE_DEFAULTS["path_samples"],
    min_tail: int = SUMMARIZE_DEFAULTS["min_tail"],
) -> ComparisonBattery:
    """Score *models* against *target* over the full battery.

    *target* defaults to the frozen reference AS map at size *n* (cached
    through the same store as the model cells).  Scoring itself is cheap
    arithmetic and stays in the parent; all topology generation and metric
    computation parallelizes/caches via :func:`run_battery`, including its
    fault containment: replicates whose unit failed (see *timeout* /
    *retries*) are skipped in scoring with a ``RuntimeWarning`` naming the
    model, never crashing the comparison, and the reported cache counters
    are per-run deltas even when a shared :class:`ResultCache` instance is
    reused across calls.  *tracer* / *profile_dir* thread through to
    :func:`run_battery`; the target-summary and scoring stages emit their
    own spans.
    """
    store = _resolve_cache(cache)
    log = resolve_journal(journal)
    stats_before = store.stats.snapshot()
    trc = tracer if tracer is not None else get_tracer()
    registry = get_registry()
    registry_before = registry.snapshot()
    sum_params = {
        "path_sample_threshold": path_sample_threshold,
        "path_samples": path_samples,
        "min_tail": min_tail,
    }
    with _ambient_obs(trc), trc.span(
        "compare", models=len(_normalize_models(models)), n=n, seeds=seeds
    ):
        with trc.span("target.summarize", n=n):
            target_summary = summarize_target(target, n, store, sum_params)
        battery = run_battery(
            models,
            n=n,
            seeds=seeds,
            base_seed=base_seed,
            jobs=jobs,
            cache=store,
            timeout=timeout,
            retries=retries,
            journal=log,
            tracer=trc,
            profile_dir=profile_dir,
            **sum_params,
        )
        # Report this run's counters spanning the target cells as well as
        # the battery's own (run_battery's deltas start after the target
        # probe), for both the cache stats and the metrics snapshot.
        battery.stats = store.stats.delta(stats_before)
        battery.metrics = diff_snapshots(registry.snapshot(), registry_before)
        scores: List[ModelScore] = []
        with trc.span("score", models=len(battery.entries)):
            for entry in battery.entries:
                survivors: List[TopologySummary] = []
                comparisons: List[ComparisonResult] = []
                skipped = 0
                for summary in entry.summaries:
                    if isinstance(summary, PartialSummary) and summary.failed:
                        skipped += 1
                        continue
                    # Non-failed partial summaries (subset-group batteries)
                    # raise a ValueError naming the missing groups inside
                    # compare_summaries.
                    comparisons.append(
                        compare_summaries(summary, target_summary, metrics=metrics)
                    )
                    survivors.append(summary)
                if skipped:
                    warnings.warn(
                        f"model {entry.model!r}: {skipped} of {len(entry.summaries)} "
                        f"replicate(s) failed; scoring the {len(survivors)} "
                        f"surviving replicate(s) only "
                        f"(see BatteryResult.failures for tracebacks)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                scores.append(
                    ModelScore(
                        model=entry.model,
                        scores=tuple(c.score for c in comparisons),
                        comparisons=tuple(comparisons),
                        summaries=tuple(survivors),
                    )
                )
    return ComparisonBattery(target=target_summary, scores=scores, battery=battery)
