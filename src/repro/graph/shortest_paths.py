"""Shortest-path-length statistics (experiment F8).

The small-world property of the AS map shows up as a sharply peaked
hop-count distribution with mean ≈ 3.5–4.  Exact all-pairs BFS costs
O(N·E); for graphs beyond a few thousand nodes the functions here switch to
uniform source sampling, which estimates the distribution with controlled
error while keeping harness runtimes bounded.

Every function here runs the view's bit-parallel BFS
(:meth:`~repro.graph.csr.CSRView.bfs_levels`) over chunks of
``_BFS_BATCH`` sources.  Each level is a bitset of the (target, source)
pairs first reached at that distance, so the hop counts are popcounts of
the levels, a source's eccentricity is the last level holding its bit,
and the diameter is the last level of all: every value is an integer
count, whatever the view's arrays are backed by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..stats.rng import SeedLike, make_rng
from .csr import CSRView, popcount
from .graph import Graph

__all__ = [
    "PathLengthStats",
    "path_length_distribution",
    "path_length_stats",
    "average_path_length",
    "eccentricities",
    "diameter",
]

Node = Hashable


@dataclass(frozen=True)
class PathLengthStats:
    """Hop-count distribution over (sampled) connected pairs.

    ``counts[d]`` is the number of ordered source→target observations at
    distance ``d >= 1``; ``sources`` records how many BFS roots were used and
    ``exact`` whether every node served as a root.
    """

    counts: Dict[int, int]
    sources: int
    exact: bool

    @property
    def total_pairs(self) -> int:
        """Number of distance observations."""
        return sum(self.counts.values())

    @property
    def mean(self) -> float:
        """Average shortest path length ⟨ℓ⟩."""
        total = self.total_pairs
        if total == 0:
            return 0.0
        return sum(d * c for d, c in self.counts.items()) / total

    @property
    def max_observed(self) -> int:
        """Largest distance seen (the diameter when ``exact``)."""
        return max(self.counts) if self.counts else 0

    def probabilities(self) -> List[Tuple[int, float]]:
        """(distance, probability) pairs, normalized over observations."""
        total = self.total_pairs
        if total == 0:
            return []
        return [(d, self.counts[d] / total) for d in sorted(self.counts)]


def path_length_distribution(
    graph: Graph,
    max_sources: Optional[int] = None,
    seed: SeedLike = None,
) -> PathLengthStats:
    """Distribution of shortest-path lengths within *graph*.

    With *max_sources* set and smaller than N, BFS roots are sampled
    uniformly without replacement; otherwise every node is a root and the
    counts are exact (each unordered pair contributes twice, which cancels
    in all normalized statistics).  Roots are drawn as
    :func:`path_length_stats` draws them, over every node in graph
    iteration order.
    """
    view = graph.csr()
    return path_length_stats(view, range(view.num_nodes), max_sources, seed)


#: Sources per :meth:`~repro.graph.csr.CSRView.bfs_levels` chunk, 8
#: uint64 words per row: enough to amortize each level's array passes
#: over many sources, few enough that a level's (n, 8) bitsets stay small.
_BFS_BATCH = 512


def path_length_stats(
    view: CSRView,
    candidates: Sequence[int],
    max_sources: Optional[int] = None,
    seed: SeedLike = None,
) -> PathLengthStats:
    """Hop-count distribution from BFS roots among *candidates* (positions
    of *view*, in position order), run as bit-parallel BFS on the view.

    With *max_sources* set and smaller than the candidate count, the roots
    are ``rng.sample(candidates, max_sources)``; ``random.sample`` picks by
    index alone, so these are the nodes a sample over the candidates' node
    ids would pick.  Otherwise every candidate is a root.
    """
    if not candidates:
        return PathLengthStats(counts={}, sources=0, exact=True)
    exact = max_sources is None or max_sources >= len(candidates)
    if exact:
        sources = candidates
    else:
        sources = make_rng(seed).sample(candidates, max_sources)
    positions = np.asarray(sources, dtype=np.int64)
    counts: Dict[int, int] = {}
    for start in range(0, positions.size, _BFS_BATCH):
        levels = view.bfs_levels(positions[start : start + _BFS_BATCH])
        for depth, fresh in enumerate(levels, start=1):
            counts[depth] = counts.get(depth, 0) + popcount(fresh)
    return PathLengthStats(counts=counts, sources=len(sources), exact=exact)


def average_path_length(
    graph: Graph,
    max_sources: Optional[int] = None,
    seed: SeedLike = None,
) -> float:
    """Characteristic path length ⟨ℓ⟩ (sampled when *max_sources* is set)."""
    return path_length_distribution(graph, max_sources=max_sources, seed=seed).mean


def eccentricities(graph: Graph) -> Dict[Node, int]:
    """Eccentricity of every node (max distance to any reachable node).

    Requires a connected graph to be meaningful; on a disconnected graph the
    eccentricity is computed within each node's component.
    """
    view = graph.csr()
    n = view.num_nodes
    out: Dict[Node, int] = {}
    for start in range(0, n, _BFS_BATCH):
        positions = np.arange(start, min(start + _BFS_BATCH, n))
        bits = np.arange(positions.size)
        shifts = (bits % 64).astype(np.uint64)
        # A source's eccentricity is the last level that reached anything
        # from it (0 for an isolated source).
        farthest = np.zeros(positions.size, dtype=np.int64)
        for depth, fresh in enumerate(view.bfs_levels(positions), start=1):
            words = np.bitwise_or.reduce(fresh, axis=0)
            farthest[((words[bits // 64] >> shifts) & np.uint64(1)) == 1] = depth
        for i, ecc in zip(positions.tolist(), farthest.tolist()):
            out[view.nodes[i]] = ecc
    return out


def diameter(graph: Graph) -> int:
    """Exact diameter (longest shortest path) of the graph.

    Raises :class:`ValueError` on a disconnected graph, where the diameter
    is conventionally infinite.
    """
    view = graph.csr()
    n = view.num_nodes
    best = 0
    for start in range(0, n, _BFS_BATCH):
        positions = np.arange(start, min(start + _BFS_BATCH, n))
        # Each source reaches itself at level 0.
        pairs = positions.size
        for depth, fresh in enumerate(view.bfs_levels(positions), start=1):
            pairs += popcount(fresh)
            best = max(best, depth)
        if pairs != n * positions.size:
            raise ValueError("diameter is undefined on a disconnected graph")
    return best
