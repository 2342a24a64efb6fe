"""Betweenness centrality (experiment F5).

Freeman betweenness measures how much shortest-path traffic a node would
carry; on the AS map its distribution is heavy-tailed with exponent ≈ 2.
Exact computation uses Brandes' algorithm, O(N·E) on unweighted graphs.
For harness-scale graphs a pivot-sampled estimator (Brandes–Pich) keeps
runtime proportional to the number of sampled sources while remaining an
unbiased estimator of the exact values.
"""

from __future__ import annotations

from typing import Dict, Hashable, Sequence

import numpy as np

from ..stats.rng import SeedLike, make_rng
from .graph import Graph

__all__ = ["betweenness_centrality", "approximate_betweenness"]

Node = Hashable


#: Sources per batched-Brandes chunk; bounds the dense (n, batch) workspaces.
_BRANDES_BATCH = 256


def _accumulate_csr(graph: Graph, sources: Sequence[Node]) -> np.ndarray:
    """Brandes accumulation from *sources* on the CSR view.

    Source-batched and level-synchronous: a whole chunk of sources runs
    together, with one sparse·dense matmul per BFS level propagating the
    path counts sigma forward (``A @ (sigma · level-mask)``) and one per
    level propagating the dependencies delta backward — the per-level
    array overhead is amortized over the batch instead of paid per
    source.  Sigma values are integer path counts (exact in float64);
    delta accumulates floats in a different order than a one-source-at-
    a-time dict Brandes, so scores agree with it to ~1e-12 relative, not
    bit-for-bit.
    """
    view = graph.csr()
    n = view.num_nodes
    scores = np.zeros(n, dtype=np.float64)
    if n == 0 or not sources:
        return scores
    adjacency = view.unweighted_sparse()
    index = view.index
    positions = np.fromiter(
        (index[s] for s in sources), dtype=np.int64, count=len(sources)
    )
    for start in range(0, positions.size, _BRANDES_BATCH):
        chunk = positions[start : start + _BRANDES_BATCH]
        batch = chunk.size
        cols = np.arange(batch)
        distances = np.full((n, batch), -1, dtype=np.int32)
        sigma = np.zeros((n, batch), dtype=np.float64)
        distances[chunk, cols] = 0
        sigma[chunk, cols] = 1.0
        depth = 0
        while True:
            # Propagate path counts: for every node first reached at
            # depth+1, sigma is the sum of sigma over its depth-level
            # neighbors (all of which are BFS-tree parents).
            forward = adjacency @ np.where(distances == depth, sigma, 0.0)
            fresh = (forward > 0) & (distances < 0)
            if not fresh.any():
                break
            depth += 1
            distances[fresh] = depth
            sigma[fresh] = forward[fresh]
        delta = np.zeros((n, batch), dtype=np.float64)
        for level in range(depth, 0, -1):
            on_level = distances == level
            # delta[w] += sigma[w]/sigma[v] * (1 + delta[v]) summed over
            # the level's nodes v adjacent to w one level up; masking the
            # matmul result to level-1 keeps only BFS-tree edges.
            ratio = np.zeros((n, batch), dtype=np.float64)
            np.divide(1.0 + delta, sigma, out=ratio, where=on_level)
            contrib = (adjacency @ ratio) * sigma
            delta += np.where(distances == level - 1, contrib, 0.0)
        scores += delta.sum(axis=1)
        # Brandes never credits a source with its own delta.
        np.subtract.at(scores, chunk, delta[chunk, cols])
    return scores


def _scored(graph: Graph, sources: Sequence[Node], scale: float) -> Dict[Node, float]:
    """Run Brandes from *sources* on the CSR view, scaled."""
    raw = _accumulate_csr(graph, sources)
    view = graph.csr()
    return {node: float(raw[i]) * scale for i, node in enumerate(view.nodes)}


def betweenness_centrality(graph: Graph, normalized: bool = True) -> Dict[Node, float]:
    """Exact Freeman betweenness of every node (Brandes' algorithm).

    Undirected convention: raw pair counts are halved; with *normalized*
    they are further divided by ``(N-1)(N-2)/2``, the number of pairs a node
    could possibly sit between.
    """
    n = graph.num_nodes
    scale = 0.5
    if normalized and n > 2:
        scale /= (n - 1) * (n - 2) / 2.0
    return _scored(graph, list(graph.nodes()), scale)


def approximate_betweenness(
    graph: Graph,
    num_pivots: int,
    seed: SeedLike = None,
    normalized: bool = True,
) -> Dict[Node, float]:
    """Pivot-sampled betweenness (Brandes–Pich estimator).

    Runs Brandes accumulation from *num_pivots* uniformly sampled sources
    and rescales by ``N / num_pivots``, giving an unbiased estimate of the
    exact score.  Matches :func:`betweenness_centrality` exactly when
    ``num_pivots >= N``.  Pivots are sampled from the node ids in graph
    iteration order, so a seed always names the same sources.
    """
    nodes = list(graph.nodes())
    if not nodes:
        return {}
    if num_pivots <= 0:
        raise ValueError("num_pivots must be positive")
    if num_pivots >= len(nodes):
        return betweenness_centrality(graph, normalized=normalized)
    rng = make_rng(seed)
    pivots = rng.sample(nodes, num_pivots)
    n = len(nodes)
    scale = 0.5 * n / num_pivots
    if normalized and n > 2:
        scale /= (n - 1) * (n - 2) / 2.0
    return _scored(graph, pivots, scale)
