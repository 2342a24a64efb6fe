"""Degree–degree correlations (experiment F4).

The AS map is *disassortative*: high-degree providers connect mostly to
low-degree customers, so the average nearest-neighbor degree k̄_nn(k) decays
with k (roughly k^-0.5) and the Pearson assortativity r is around -0.19.
Degree-driven growth models without extra mechanisms come out neutral, which
is one of the distinguishing metrics in the comparison table T1.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Tuple

import numpy as np

from ..stats.distributions import binned_spectrum
from .graph import Graph

__all__ = [
    "average_neighbor_degree",
    "knn_by_degree",
    "knn_spectrum",
    "normalized_knn_spectrum",
    "degree_assortativity",
    "edge_assortativity",
]

Node = Hashable


def average_neighbor_degree(graph: Graph) -> Dict[Node, float]:
    """Mean degree of each node's neighbors (0 for isolated nodes).

    Neighbor degrees are summed with one ``np.bincount`` over the flat CSR
    adjacency; the sums are integer-valued, so exact in float64.
    """
    view = graph.csr()
    n = view.num_nodes
    degrees = view.degrees
    rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
    sums = np.bincount(
        rows, weights=degrees[view.indices].astype(np.float64), minlength=n
    )
    return {
        node: (float(sums[i]) / int(degrees[i]) if degrees[i] else 0.0)
        for i, node in enumerate(view.nodes)
    }


def knn_by_degree(graph: Graph) -> Dict[int, float]:
    """k̄_nn(k): mean neighbor degree averaged over nodes of exact degree k."""
    per_node = average_neighbor_degree(graph)
    sums: Dict[int, List[float]] = {}
    for node, knn in per_node.items():
        k = graph.degree(node)
        if k >= 1:
            sums.setdefault(k, []).append(knn)
    return {k: sum(vals) / len(vals) for k, vals in sorted(sums.items())}


def knn_spectrum(
    graph: Graph,
    log_bins: bool = True,
    bins_per_decade: int = 10,
) -> List[Tuple[float, float]]:
    """k̄_nn(k) as a log-binned spectrum for plotting/reporting."""
    per_node = average_neighbor_degree(graph)
    pairs = [
        (float(graph.degree(node)), knn)
        for node, knn in per_node.items()
        if graph.degree(node) >= 1
    ]
    return binned_spectrum(pairs, log_bins=log_bins, bins_per_decade=bins_per_decade)


def normalized_knn_spectrum(
    graph: Graph,
    log_bins: bool = True,
    bins_per_decade: int = 10,
) -> List[Tuple[float, float]]:
    """k̄_nn(k)·⟨k⟩/⟨k²⟩ — the normalization used in the AS-map literature.

    In an uncorrelated network this quantity is flat at 1, so deviations read
    directly as correlation structure.
    """
    degrees = list(graph.degrees().values())
    if not degrees:
        return []
    mean_k = sum(degrees) / len(degrees)
    mean_k2 = sum(k * k for k in degrees) / len(degrees)
    if mean_k2 == 0:
        return []
    factor = mean_k / mean_k2
    return [
        (k, knn * factor)
        for k, knn in knn_spectrum(graph, log_bins, bins_per_decade)
    ]


def edge_assortativity(degrees: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Newman's r over the edges ``(u[i], v[i])`` (position arrays, each
    undirected edge once), with *degrees* indexed by position.

    Each edge contributes both orientations.  Every accumulated sum is an
    exact int64 reduction; returns 0.0 when there are no edges or the
    variance vanishes (e.g. a regular graph), where r is undefined.
    """
    if u.size == 0:
        return 0.0
    ku = degrees[u]
    kv = degrees[v]
    sum_x = float(int(ku.sum()) + int(kv.sum()))
    sum_x2 = float(int((ku * ku).sum()) + int((kv * kv).sum()))
    sum_xy = float(2 * int((ku * kv).sum()))
    count = 2 * int(u.size)
    mean_x = sum_x / count
    var_x = sum_x2 / count - mean_x * mean_x
    if var_x <= 0:
        return 0.0
    cov = sum_xy / count - mean_x * mean_x
    return cov / var_x


def degree_assortativity(graph: Graph) -> float:
    """Pearson correlation of degrees across edges (Newman's r).

    Computed over edge endpoint pairs, each undirected edge contributing
    both orientations, by :func:`edge_assortativity` over the CSR edge
    arrays.  Returns 0.0 when the variance vanishes (e.g. a regular
    graph), where r is undefined.
    """
    view = graph.csr()
    u, v, _ = view.edge_arrays()
    return edge_assortativity(view.degrees, u, v)
