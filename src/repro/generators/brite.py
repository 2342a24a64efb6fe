"""BRITE-style generator: incremental growth + geometry + preference.

BRITE's AS-level mode combines the three mechanisms its predecessors used
separately: nodes are *placed* on a plane (uniform or skewed like Waxman),
*arrive incrementally* (like BA), and pick targets by **preferential
attachment modulated by a Waxman distance kernel**:

    P(new → j) ∝ k_j * exp(-d(new, j) / (alpha * L))

With ``geometry=False`` the kernel drops out and the model reduces to BA;
with a heavy distance penalty it approaches a geometric nearest-neighbor
net.  This is the classic "knob between Waxman and Barabási" topology
generator.
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry.fractal import FractalBoxSet
from ..graph.graph import Graph
from ..stats.rng import SeedLike, make_rng
from .base import TopologyGenerator, _validate_size

__all__ = ["BriteGenerator"]


class BriteGenerator(TopologyGenerator):
    """Incremental preferential + distance-kernel growth on a plane.

    *m* links per arriving node; *alpha* the Waxman decay length (relative
    to the plane diagonal); *fractal_dimension* < 2 places nodes on a
    clustered fractal support (routers cluster geographically), 2.0 means
    uniform placement.
    """

    name = "brite"

    def __init__(
        self,
        m: int = 2,
        alpha: float = 0.25,
        geometry: bool = True,
        fractal_dimension: float = 2.0,
    ):
        if m < 1:
            raise ValueError("m must be >= 1")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0 < fractal_dimension <= 2.0:
            raise ValueError("fractal_dimension must be in (0, 2]")
        self.m = m
        self.alpha = alpha
        self.geometry = geometry
        self.fractal_dimension = fractal_dimension

    def generate(self, n: int, seed: SeedLike = None) -> Graph:
        """Grow a BRITE-style network to exactly *n* nodes."""
        seed_size = max(self.m, 3)
        _validate_size(n, minimum=seed_size + 1)
        rng = make_rng(seed)
        support = FractalBoxSet(
            dimension=self.fractal_dimension, levels=8, seed=rng
        )
        positions = [support.sample_point() for _ in range(n)]
        scale = self.alpha * math.sqrt(2.0)

        graph = Graph(name=self.name)
        degrees = [0] * n
        for i in range(seed_size):
            j = (i + 1) % seed_size
            graph.add_edge(i, j)
        for i in range(seed_size):
            degrees[i] = graph.degree(i)

        with self.trace_phase("growth", n=n):
            self._grow(graph, degrees, positions, scale, seed_size, n, rng)
            self.count_steps(n - seed_size)
        return graph

    def _grow(
        self, graph, degrees, positions, scale, seed_size, n, rng
    ) -> None:
        """One weight vector + cumsum per arrival.

        Each draw spends one ``rng.random()`` exactly like a linear-scan
        :func:`~repro.stats.sampling.weighted_choice` (``np.cumsum``
        accumulates left-to-right like the running sum, and
        ``searchsorted(..., side="right")`` finds the same first crossing),
        so the draw sequence is the scan's.
        """
        deg = np.zeros(n, dtype=np.float64)
        deg[:seed_size] = degrees[:seed_size]
        xs = np.fromiter((p.x for p in positions), dtype=np.float64, count=n)
        ys = np.fromiter((p.y for p in positions), dtype=np.float64, count=n)
        edges = []
        for new in range(seed_size, n):
            weights = deg[:new]
            if self.geometry:
                d = np.hypot(xs[:new] - xs[new], ys[:new] - ys[new])
                weights = weights * np.exp(-d / scale)
            cum = np.cumsum(weights)
            total = float(cum[-1])
            if total <= 0:
                raise ValueError("total weight must be positive")
            last_positive = int(np.nonzero(weights > 0)[0][-1])
            count = min(self.m, new)
            chosen: set = set()
            guard = 0
            while len(chosen) < count and guard < 50 * count:
                guard += 1
                target = rng.random() * total
                index = int(np.searchsorted(cum, target, side="right"))
                chosen.add(last_positive if index >= new else index)
            for target in chosen:
                edges.append((new, target))
                deg[target] += 1
            deg[new] = len(chosen)
        graph.add_edges(edges)
