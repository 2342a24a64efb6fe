"""The metric battery (core of the validation pipeline).

:func:`summarize` runs every scalar measurement the comparison literature
uses on one topology and returns a :class:`TopologySummary`.  Conventions
follow the AS-map papers:

* everything is measured on the **giant component**;
* path lengths are BFS-sampled above ``path_sample_threshold`` nodes;
* the degree exponent uses the CSN discrete MLE with automatic x_min, and
  is reported as NaN when no power-law tail is fittable (e.g. ER graphs) —
  NaN is data here, it distinguishes "no heavy tail" from "exponent 3".
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..graph.clustering import average_clustering, total_triangles, transitivity
from ..graph.cores import degeneracy
from ..graph.correlations import degree_assortativity
from ..graph.csr import resolve_backend
from ..graph.graph import Graph
from ..graph.shortest_paths import path_length_distribution
from ..graph.traversal import giant_component
from ..obs.metrics import get_registry
from ..obs.tracer import get_tracer
from ..stats.powerlaw import fit_powerlaw_auto_xmin
from ..stats.rng import SeedLike

__all__ = [
    "TopologySummary",
    "PartialSummary",
    "summarize",
    "METRICS_VERSION",
    "METRIC_GROUPS",
    "EXTRA_METRIC_GROUPS",
    "ALL_METRIC_GROUPS",
    "compute_metric_groups",
]

#: Version tag for the battery's on-disk cache keys.  Bump whenever any
#: metric implementation changes numerically — cached cells computed by the
#: old code then stop matching and are recomputed.  tests/core/
#: golden_metrics.json pins each version's values on a fixed corpus, and
#: tier-1 fails when one moves without a bump (see test_golden_metrics.py).
METRICS_VERSION = "2"

#: Partition of the scalar battery into independently computable (and
#: independently cacheable) groups.  Every :class:`TopologySummary` field
#: except ``name`` appears in exactly one group.
METRIC_GROUPS: Dict[str, Tuple[str, ...]] = {
    "size": (
        "num_nodes",
        "num_edges",
        "average_degree",
        "max_degree",
        "max_degree_fraction",
        "giant_fraction",
    ),
    "tail": ("degree_exponent", "degree_exponent_sigma"),
    "clustering": ("average_clustering", "transitivity", "triangles"),
    "mixing": ("assortativity",),
    "core": ("degeneracy",),
    "paths": ("average_path_length",),
}

#: Opt-in groups beyond the :class:`TopologySummary` scalars.  They run
#: through the same battery machinery (spans, cache cells, rusage) but are
#: not part of the default ``summarize`` battery — a run requesting only
#: extra groups assembles a :class:`PartialSummary` carrying their values.
#: ``robustness`` is the T5 behavioral bundle
#: (:func:`repro.resilience.sweep.robustness_summary` plus the Molloy–Reed
#: prediction).
EXTRA_METRIC_GROUPS: Dict[str, Tuple[str, ...]] = {
    "robustness": (
        "random_survival",
        "attack_survival",
        "random_critical",
        "attack_critical",
        "path_inflation",
        "link_redundancy",
        "shortcut_fraction",
        "molloy_reed_fc",
    ),
}

#: Every runnable metric group: the :class:`TopologySummary` partition plus
#: the opt-in extras.  The battery runner validates ``groups=`` against this.
ALL_METRIC_GROUPS: Dict[str, Tuple[str, ...]] = {
    **METRIC_GROUPS,
    **EXTRA_METRIC_GROUPS,
}


@dataclass(frozen=True)
class TopologySummary:
    """Scalar measurements of one topology (giant component).

    ``degree_exponent`` is NaN when the tail is not power-law fittable;
    ``degree_exponent_sigma`` mirrors it.  ``max_degree_fraction`` is
    k_max/N, the quantity whose linear scaling with N the weighted-growth
    analysis predicts.
    """

    name: str
    num_nodes: int
    num_edges: int
    average_degree: float
    max_degree: int
    max_degree_fraction: float
    degree_exponent: float
    degree_exponent_sigma: float
    average_clustering: float
    transitivity: float
    triangles: int
    assortativity: float
    average_path_length: float
    degeneracy: int
    giant_fraction: float

    def as_dict(self) -> Dict[str, float]:
        """All fields as a flat name → value dict (name field excluded)."""
        out = {}
        for f in fields(self):
            if f.name == "name":
                continue
            out[f.name] = getattr(self, f.name)
        return out

    @classmethod
    def from_dict(cls, name: str, values: Mapping[str, float]) -> "TopologySummary":
        """Rebuild a summary from a flat metric dict (cache deserialization)."""
        kwargs = {}
        for f in fields(cls):
            if f.name == "name":
                continue
            if f.name not in values:
                raise KeyError(f"metric {f.name!r} missing from values")
            kwargs[f.name] = values[f.name]
        return cls(name=name, **kwargs)

    def __str__(self) -> str:
        gamma = (
            f"{self.degree_exponent:.2f}"
            if not math.isnan(self.degree_exponent)
            else "n/a"
        )
        return (
            f"{self.name}: N={self.num_nodes} E={self.num_edges} "
            f"<k>={self.average_degree:.2f} kmax={self.max_degree} "
            f"gamma={gamma} c={self.average_clustering:.3f} "
            f"r={self.assortativity:+.3f} <l>={self.average_path_length:.2f} "
            f"core={self.degeneracy}"
        )


@dataclass(frozen=True)
class PartialSummary:
    """An incomplete battery summary: some metric groups are absent.

    Produced by the battery runner when a replicate cannot assemble a full
    :class:`TopologySummary` — either because the battery was deliberately
    run on a subset of groups (``run_battery(..., groups=("tail",))``) or
    because the work unit failed and only previously-cached groups survive.
    It is an explicit, inspectable object (never ``None``): ``values`` holds
    every metric that *was* computed, ``missing`` names the absent groups,
    and ``error`` carries the failure traceback when a crash caused the gap.

    Scoring a partial summary is a caller error for deliberate subsets —
    :func:`repro.core.compare.compare_summaries` raises a ``ValueError``
    naming ``missing`` — while the battery's own scoring path skips failed
    replicates with a warning instead.
    """

    name: str
    values: Dict[str, float] = field(default_factory=dict)
    groups: Tuple[str, ...] = ()
    missing: Tuple[str, ...] = ()
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        """True when a unit failure (not a deliberate subset) caused this."""
        return self.error is not None

    def as_dict(self) -> Dict[str, float]:
        """The metrics that are present, as a flat name → value dict."""
        return dict(self.values)

    def get(self, metric: str, default: float = float("nan")) -> float:
        """One metric's value, or *default* when its group is missing."""
        return self.values.get(metric, default)

    def __str__(self) -> str:
        state = "failed" if self.failed else "partial"
        present = ",".join(self.groups) or "none"
        absent = ",".join(self.missing) or "none"
        return f"{self.name}: {state} summary (groups={present} missing={absent})"


def summarize(
    graph: Graph,
    name: Optional[str] = None,
    path_sample_threshold: int = 1500,
    path_samples: int = 400,
    min_tail: int = 50,
    seed: SeedLike = 0,
    backend: str = "auto",
) -> TopologySummary:
    """Run the full scalar battery on *graph*.

    Above *path_sample_threshold* nodes, path lengths use *path_samples*
    BFS roots (seeded, so summaries are reproducible).  The power-law fit
    needs at least *min_tail* tail samples, else the exponent is NaN.
    *backend* selects the kernel implementation (``auto``/``python``/
    ``csr``); both backends produce identical values.
    """
    values = compute_metric_groups(
        graph,
        METRIC_GROUPS,
        path_sample_threshold=path_sample_threshold,
        path_samples=path_samples,
        min_tail=min_tail,
        seed=seed,
        backend=backend,
    )
    merged: Dict[str, float] = {}
    for group_values in values.values():
        merged.update(group_values)
    return TopologySummary.from_dict(
        name if name is not None else (graph.name or "graph"), merged
    )


def _group_size(gc: Graph, original_n: int, **_) -> Dict[str, float]:
    n = gc.num_nodes
    return {
        "num_nodes": n,
        "num_edges": gc.num_edges,
        "average_degree": gc.average_degree,
        "max_degree": gc.max_degree,
        "max_degree_fraction": gc.max_degree / n,
        "giant_fraction": n / original_n,
    }


def _group_tail(gc: Graph, min_tail: int = 50, **_) -> Dict[str, float]:
    degrees = list(gc.degrees().values())
    try:
        fit = fit_powerlaw_auto_xmin(degrees, min_tail=min_tail)
        gamma, gamma_sigma = fit.gamma, fit.sigma
    except ValueError:
        gamma, gamma_sigma = float("nan"), float("nan")
    return {"degree_exponent": gamma, "degree_exponent_sigma": gamma_sigma}


def _group_clustering(gc: Graph, backend: str = "auto", **_) -> Dict[str, float]:
    return {
        "average_clustering": average_clustering(gc, backend=backend),
        "transitivity": transitivity(gc, backend=backend),
        "triangles": total_triangles(gc, backend=backend),
    }


def _group_mixing(gc: Graph, backend: str = "auto", **_) -> Dict[str, float]:
    return {"assortativity": degree_assortativity(gc, backend=backend)}


def _group_core(gc: Graph, backend: str = "auto", **_) -> Dict[str, float]:
    return {"degeneracy": degeneracy(gc, backend=backend)}


def _group_paths(
    gc: Graph,
    path_sample_threshold: int = 1500,
    path_samples: int = 400,
    seed: SeedLike = 0,
    backend: str = "auto",
    **_,
) -> Dict[str, float]:
    max_sources = None if gc.num_nodes <= path_sample_threshold else path_samples
    paths = path_length_distribution(
        gc, max_sources=max_sources, seed=seed, backend=backend
    )
    return {"average_path_length": paths.mean}


def _group_robustness(
    gc: Graph, seed: SeedLike = 0, backend: str = "auto", **_
) -> Dict[str, float]:
    """The T5 behavioral bundle, measured on the giant component.

    Lazy import: ``repro.resilience`` pulls in the sweep kernels, which the
    default scalar battery never needs.
    """
    from ..analysis.percolation import critical_failure_fraction
    from ..resilience.sweep import robustness_summary

    values = robustness_summary(gc, seed=seed, backend=backend)
    try:
        values["molloy_reed_fc"] = critical_failure_fraction(gc)
    except ValueError:
        values["molloy_reed_fc"] = float("nan")
    return values


_GROUP_FUNCTIONS = {
    "size": _group_size,
    "tail": _group_tail,
    "clustering": _group_clustering,
    "mixing": _group_mixing,
    "core": _group_core,
    "paths": _group_paths,
    "robustness": _group_robustness,
}


def compute_metric_groups(
    graph: Graph,
    groups: Sequence[str],
    path_sample_threshold: int = 1500,
    path_samples: int = 400,
    min_tail: int = 50,
    seed: SeedLike = 0,
    with_timings: bool = False,
    backend: str = "auto",
):
    """Compute a subset of the battery, one value-dict per metric group.

    This is the work-unit kernel of the parallel battery runner: each group
    in *groups* is computed independently on the (shared) giant component, so
    a caller holding cached values for some groups only pays for the missing
    ones.  ``summarize`` is exactly the merge of all groups.

    *backend* selects the kernel implementation for every group
    (``auto``/``python``/``csr``).  It is resolved once against the giant
    component's size so every group runs on the same backend, which is
    recorded on each ``metric.<group>`` tracing span.  Values are identical
    across backends, so the choice never affects results (or cache keys).

    With ``with_timings=True`` the return value is a ``(values, timings)``
    pair where ``timings`` maps each group to the wall seconds its own
    computation took (the shared giant-component extraction is charged to
    ``timings["giant"]``) — the real numbers behind the battery telemetry
    table, not an even split of the total.
    """
    unknown = [g for g in groups if g not in _GROUP_FUNCTIONS]
    if unknown:
        known = ", ".join(sorted(_GROUP_FUNCTIONS))
        raise KeyError(f"unknown metric group(s) {unknown!r}; available: {known}")
    tracer = get_tracer()
    original_n = graph.num_nodes
    giant_started = time.perf_counter()
    with tracer.span("giant", n=original_n):
        gc = giant_component(graph, backend=backend)
    giant_seconds = time.perf_counter() - giant_started
    if gc.num_nodes == 0:
        raise ValueError("cannot summarize an empty graph")
    resolved = resolve_backend(backend, gc.num_nodes)
    out: Dict[str, Dict[str, float]] = {}
    timings: Dict[str, float] = {"giant": giant_seconds}
    for group in groups:
        group_started = time.perf_counter()
        with tracer.span(f"metric.{group}", n=gc.num_nodes, backend=resolved):
            out[group] = _GROUP_FUNCTIONS[group](
                gc,
                original_n=original_n,
                path_sample_threshold=path_sample_threshold,
                path_samples=path_samples,
                min_tail=min_tail,
                seed=seed,
                backend=resolved,
            )
        timings[group] = time.perf_counter() - group_started
    get_registry().counter("metrics.groups.computed").inc(len(tuple(groups)))
    if with_timings:
        return out, timings
    return out
