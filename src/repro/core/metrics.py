"""The metric battery (core of the validation pipeline).

:func:`summarize` runs every scalar measurement the comparison literature
uses on one topology and returns a :class:`TopologySummary`.  Conventions
follow the AS-map papers:

* everything is measured on the **giant component**, a boolean mask over
  the topology's one :class:`~repro.graph.csr.CSRView` (never a second
  graph or view);
* path lengths are BFS-sampled above ``path_sample_threshold`` nodes;
* the degree exponent uses the CSN discrete MLE with automatic x_min, and
  is reported as NaN when no power-law tail is fittable (e.g. ER graphs) —
  NaN is data here, it distinguishes "no heavy tail" from "exponent 3".
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.clustering import (
    local_clustering_array,
    transitivity_ratio,
    triangle_counts,
)
from ..graph.cores import coreness
from ..graph.correlations import edge_assortativity
from ..graph.csr import CSRView, resolve_backend
from ..graph.graph import Graph
from ..graph.shortest_paths import path_length_stats
from ..graph.traversal import giant_mask
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
METRICS_VERSION = "3"

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
) -> TopologySummary:
    """Run the full scalar battery on *graph*.

    Above *path_sample_threshold* nodes, path lengths use *path_samples*
    BFS roots (seeded, so summaries are reproducible).  The power-law fit
    needs at least *min_tail* tail samples, else the exponent is NaN.
    """
    values = compute_metric_groups(
        graph,
        METRIC_GROUPS,
        path_sample_threshold=path_sample_threshold,
        path_samples=path_samples,
        min_tail=min_tail,
        seed=seed,
    )
    merged: Dict[str, float] = {}
    for group_values in values.values():
        merged.update(group_values)
    return TopologySummary.from_dict(
        name if name is not None else (graph.name or "graph"), merged
    )


# Every group measures the giant component: *view* is the whole topology
# and *mask* selects the giant's positions.  Triangles, coreness and
# distances never cross components, so a kernel may run on the whole view
# and keep the giant's positions; each value is bit-identical to the same
# kernel run on the giant as a graph of its own.


def _group_size(view: CSRView, mask: np.ndarray, **_) -> Dict[str, float]:
    degrees = view.degrees[mask]
    n = int(degrees.size)
    # Every edge of a giant node stays inside the giant: half the degree
    # mass counts its edges.
    edges = int(degrees.sum()) // 2
    max_degree = int(degrees.max())
    return {
        "num_nodes": n,
        "num_edges": edges,
        "average_degree": 2.0 * edges / n,
        "max_degree": max_degree,
        "max_degree_fraction": max_degree / n,
        "giant_fraction": n / view.num_nodes,
    }


def _group_tail(
    view: CSRView, mask: np.ndarray, min_tail: int = 50, **_
) -> Dict[str, float]:
    try:
        fit = fit_powerlaw_auto_xmin(view.degrees[mask].tolist(), min_tail=min_tail)
        gamma, gamma_sigma = fit.gamma, fit.sigma
    except ValueError:
        gamma, gamma_sigma = float("nan"), float("nan")
    return {"degree_exponent": gamma, "degree_exponent_sigma": gamma_sigma}


def _group_clustering(view: CSRView, mask: np.ndarray, **_) -> Dict[str, float]:
    degrees = view.degrees[mask]
    triangles = triangle_counts(view)[mask]
    local = local_clustering_array(degrees, triangles).tolist()
    total = int(triangles.sum()) // 3
    return {
        # Python's sum in position order, as average_clustering adds.
        "average_clustering": sum(local) / len(local),
        "transitivity": transitivity_ratio(degrees, total),
        "triangles": total,
    }


def _group_mixing(view: CSRView, mask: np.ndarray, **_) -> Dict[str, float]:
    u, v, _ = view.edge_arrays()
    inside = mask[u]
    return {"assortativity": edge_assortativity(view.degrees, u[inside], v[inside])}


def _group_core(view: CSRView, mask: np.ndarray, **_) -> Dict[str, float]:
    return {"degeneracy": int(coreness(view)[mask].max())}


def _group_paths(
    view: CSRView,
    mask: np.ndarray,
    path_sample_threshold: int = 1500,
    path_samples: int = 400,
    seed: SeedLike = 0,
    **_,
) -> Dict[str, float]:
    positions = np.flatnonzero(mask).tolist()
    max_sources = None if len(positions) <= path_sample_threshold else path_samples
    paths = path_length_stats(view, positions, max_sources=max_sources, seed=seed)
    return {"average_path_length": paths.mean}


def _giant_graph(view: CSRView, mask: np.ndarray) -> Graph:
    """The giant as a :class:`Graph`: nodes in position order, edges in
    row order."""
    nodes = view.nodes
    graph = Graph()
    graph.add_nodes(nodes[i] for i in np.flatnonzero(mask).tolist())
    us, vs, ws = view.edge_arrays()
    inside = mask[us]
    graph.add_edges(
        (nodes[u], nodes[v], w)
        for u, v, w in zip(
            us[inside].tolist(), vs[inside].tolist(), ws[inside].tolist()
        )
    )
    return graph


def _group_robustness(
    view: CSRView, mask: np.ndarray, seed: SeedLike = 0, **_
) -> Dict[str, float]:
    """The T5 behavioral bundle, measured on the giant component — the one
    group whose kernels take a :class:`Graph`, so it builds one.

    Lazy import: ``repro.resilience`` pulls in the sweep kernels, which the
    default scalar battery never needs.
    """
    from ..analysis.percolation import critical_failure_fraction
    from ..resilience.sweep import robustness_summary

    gc = _giant_graph(view, mask)
    values = robustness_summary(gc, seed=seed)
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
    topology: Union[Graph, CSRView],
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

    *topology* is a :class:`CSRView` (an attached or stored snapshot) or a
    :class:`Graph`, which contributes its cached ``graph.csr()``.  One
    components pass finds the giant as a boolean mask over that view, and
    every group reads the view under the mask: no giant graph, subgraph or
    second view is built (``robustness`` alone builds a :class:`Graph` of
    the giant, for its Graph-based kernels).

    *backend* is accepted only for perfbench's world-store check, which
    still passes ``backend="python"``: the name is validated by
    :func:`repro.graph.csr.resolve_backend` and otherwise ignored, since
    every kernel runs on the CSR view.  It goes once a benchmark change
    drops that argument.

    With ``with_timings=True`` the return value is a ``(values, timings)``
    pair where ``timings`` maps each group to the wall seconds its own
    computation took (the shared giant-component extraction is charged to
    ``timings["giant"]``) — the real numbers behind the battery telemetry
    table, not an even split of the total.
    """
    resolve_backend(backend)
    unknown = [g for g in groups if g not in _GROUP_FUNCTIONS]
    if unknown:
        known = ", ".join(sorted(_GROUP_FUNCTIONS))
        raise KeyError(f"unknown metric group(s) {unknown!r}; available: {known}")
    view = topology.csr() if isinstance(topology, Graph) else topology
    tracer = get_tracer()
    giant_started = time.perf_counter()
    with tracer.span("giant", n=view.num_nodes):
        mask = giant_mask(view)
        giant_n = int(np.count_nonzero(mask))
    giant_seconds = time.perf_counter() - giant_started
    if giant_n == 0:
        raise ValueError("cannot summarize an empty graph")
    out: Dict[str, Dict[str, float]] = {}
    timings: Dict[str, float] = {"giant": giant_seconds}
    for group in groups:
        group_started = time.perf_counter()
        with tracer.span(f"metric.{group}", n=giant_n):
            out[group] = _GROUP_FUNCTIONS[group](
                view,
                mask,
                path_sample_threshold=path_sample_threshold,
                path_samples=path_samples,
                min_tail=min_tail,
                seed=seed,
            )
        timings[group] = time.perf_counter() - group_started
    get_registry().counter("metrics.groups.computed").inc(len(tuple(groups)))
    if with_timings:
        return out, timings
    return out
