"""Triangles and clustering coefficients (experiments F3, F5-right).

The AS map's clustering spectrum ``c(k)`` decays roughly as ``k^-0.75``, the
signature of its hierarchical structure; flat spectra (BA model) are the
classic failure mode the validation battery must expose.  All functions
operate on the *simple* topology — edge weights are ignored, which matches
how the literature measures clustering on multigraph-collapsed AS maps.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

import numpy as np

from ..stats.distributions import binned_spectrum
from .csr import CSRView
from .graph import Graph

__all__ = [
    "triangle_counts",
    "local_clustering_array",
    "transitivity_ratio",
    "triangles_per_node",
    "total_triangles",
    "local_clustering",
    "average_clustering",
    "transitivity",
    "clustering_spectrum",
    "clustering_by_degree",
]

Node = Hashable


def triangle_counts(view: CSRView) -> np.ndarray:
    """Triangles through each position of *view* (int64).

    The view's rows are sorted, so ``A·A`` restricted to the nonzeros of
    ``A`` (sparse matmul + elementwise mask) counts, for every connected
    pair, their common neighbors — the sorted-adjacency intersection in
    array form.  Row-summing gives twice the per-node triangle count, all
    in exact int64 arithmetic.
    """
    if view.num_edges == 0:
        return np.zeros(view.num_nodes, dtype=np.int64)
    adjacency = view.unweighted_sparse()
    common = (adjacency @ adjacency).multiply(adjacency)
    doubled = np.asarray(common.sum(axis=1)).ravel().astype(np.int64)
    return doubled // 2


def local_clustering_array(degrees: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Watts–Strogatz coefficients ``c_i = 2 T_i / (k_i (k_i - 1))`` from
    aligned degree and triangle arrays; 0 where ``k_i < 2`` (float64, each
    value the same float the scalar formula gives)."""
    out = np.zeros(degrees.size, dtype=np.float64)
    wide = degrees >= 2
    k = degrees[wide]
    out[wide] = 2.0 * triangles[wide] / (k * (k - 1))
    return out


def transitivity_ratio(degrees: np.ndarray, triangles: int) -> float:
    """``3 × triangles / connected triples`` for a degree array holding
    *triangles* triangles; 0.0 when there are no triples."""
    triples = int((degrees * (degrees - 1) // 2).sum())
    if triples == 0:
        return 0.0
    return 3.0 * triangles / triples


def triangles_per_node(graph: Graph) -> Dict[Node, int]:
    """Number of triangles through each node (exact integer counts via
    the sparse-matrix intersection of :func:`triangle_counts`)."""
    view = graph.csr()
    return dict(zip(view.nodes, triangle_counts(view).tolist()))


def total_triangles(graph: Graph) -> int:
    """Total number of distinct triangles in the graph."""
    return int(triangle_counts(graph.csr()).sum()) // 3


def local_clustering(graph: Graph) -> Dict[Node, float]:
    """Watts–Strogatz local clustering coefficient per node.

    ``c_i = 2 T_i / (k_i (k_i - 1))``; nodes of degree < 2 get 0.
    """
    view = graph.csr()
    values = local_clustering_array(view.degrees, triangle_counts(view))
    return dict(zip(view.nodes, values.tolist()))


def average_clustering(graph: Graph, count_low_degree: bool = True) -> float:
    """Mean of the local clustering coefficients.

    With ``count_low_degree`` False, degree-0/1 nodes are excluded from the
    average instead of contributing zeros (both conventions appear in the
    literature; the AS-map papers typically include them).
    """
    local = local_clustering(graph)
    if count_low_degree:
        values = list(local.values())
    else:
        values = [c for node, c in local.items() if graph.degree(node) >= 2]
    if not values:
        return 0.0
    return sum(values) / len(values)


def transitivity(graph: Graph) -> float:
    """Global transitivity: 3 × triangles / connected triples."""
    return transitivity_ratio(graph.csr().degrees, total_triangles(graph))


def clustering_by_degree(graph: Graph) -> Dict[int, float]:
    """Mean local clustering of nodes at each exact degree k >= 2."""
    local = local_clustering(graph)
    sums: Dict[int, List[float]] = {}
    for node, c in local.items():
        k = graph.degree(node)
        if k >= 2:
            sums.setdefault(k, []).append(c)
    return {k: sum(cs) / len(cs) for k, cs in sorted(sums.items())}


def clustering_spectrum(
    graph: Graph,
    log_bins: bool = True,
    bins_per_decade: int = 10,
) -> List[Tuple[float, float]]:
    """The c(k) spectrum: mean clustering vs degree, log-binned by default."""
    local = local_clustering(graph)
    pairs = [
        (float(graph.degree(node)), c)
        for node, c in local.items()
        if graph.degree(node) >= 2
    ]
    return binned_spectrum(pairs, log_bins=log_bins, bins_per_decade=bins_per_decade)
