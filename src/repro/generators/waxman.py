"""Waxman (1988) — the first-generation internet topology generator.

Nodes scatter on a plane; each pair links with probability
``beta * exp(-d / (alpha * L))``.  It captures that long links are rare but
produces Poisson-like degrees, which is precisely why post-1999 measurement
papers displaced it — the comparison table keeps it as the historical
baseline the heavy-tail results are contrasted against.
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry.kernels import WaxmanKernel
from ..geometry.plane import Plane
from ..graph.graph import Graph
from ..stats.rng import SeedLike, make_numpy_rng, make_rng
from .base import TopologyGenerator, _validate_size

__all__ = ["WaxmanGenerator"]


class WaxmanGenerator(TopologyGenerator):
    """Flat Waxman random graph on a unit square.

    *alpha* stretches the distance decay, *beta* scales density.  With
    ``connect=True`` (default) isolated fragments are stitched to the giant
    component through their spatially nearest member, the convention BRITE
    adopted so benchmark graphs are usable for routing studies.
    """

    name = "waxman"

    def __init__(
        self,
        alpha: float = 0.15,
        beta: float = 0.4,
        connect: bool = True,
    ):
        self.alpha = alpha
        self.beta = beta
        self.connect = connect
        # Validates ranges eagerly so a bad config fails at construction.
        self._kernel = WaxmanKernel(alpha=alpha, beta=beta)

    @staticmethod
    def beta_for_average_degree(
        n: int, target_degree: float, alpha: float = 0.15, samples: int = 20_000, seed: int = 7
    ) -> float:
        """Beta that yields ⟨k⟩ ≈ *target_degree* at size *n*.

        The expected degree is ``(n-1) * beta * E[exp(-d/(alpha L))]`` with d
        the distance between two uniform points; the expectation is estimated
        by Monte Carlo once and inverted.  Result is clamped to (0, 1].
        """
        if n < 2 or target_degree <= 0:
            raise ValueError("need n >= 2 and a positive target degree")
        rng = make_numpy_rng(seed)
        a = rng.random((samples, 2))
        b = rng.random((samples, 2))
        d = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
        scale = alpha * math.sqrt(2.0)
        mean_kernel = float(np.mean(np.exp(-d / scale)))
        beta = target_degree / ((n - 1) * mean_kernel)
        return min(max(beta, 1e-9), 1.0)

    def generate(self, n: int, seed: SeedLike = None) -> Graph:
        """Sample one Waxman instance with *n* nodes."""
        _validate_size(n)
        rng = make_rng(seed)
        np_rng = make_numpy_rng(rng.getrandbits(63))
        xs = np_rng.random(n)
        ys = np_rng.random(n)
        plane = Plane(side=1.0)
        graph = Graph(name=self.name)
        for node in range(n):
            plane.place(node, float(xs[node]), float(ys[node]))
            graph.add_node(node)
        scale = self.alpha * plane.max_distance
        with self.trace_phase("pairs", n=n):
            # Row-vectorized pair sweep: for each u, test all v > u at once.
            for u in range(n - 1):
                dx = xs[u + 1 :] - xs[u]
                dy = ys[u + 1 :] - ys[u]
                prob = self.beta * np.exp(-np.hypot(dx, dy) / scale)
                hits = np.nonzero(np_rng.random(n - u - 1) < prob)[0]
                for offset in hits:
                    graph.add_edge(u, int(u + 1 + offset))
        if self.connect:
            self._stitch_components(graph, plane)
        return graph

    @staticmethod
    def _stitch_components(graph: Graph, plane: Plane) -> None:
        """Attach every non-giant component to the giant one via the
        spatially closest cross pair (deterministic given the layout)."""
        from ..graph.traversal import connected_components

        components = connected_components(graph)
        if len(components) <= 1:
            return
        giant = set(components[0])
        for component in components[1:]:
            best_pair = None
            best_distance = float("inf")
            for u in component:
                for v in giant:
                    d = plane.distance(u, v)
                    if d < best_distance:
                        best_distance = d
                        best_pair = (u, v)
            if best_pair is not None:
                graph.add_edge(*best_pair)
                giant |= set(component)
