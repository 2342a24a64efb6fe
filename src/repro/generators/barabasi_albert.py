"""Barabási–Albert preferential attachment.

The model that launched degree-driven internet modeling: each arriving node
attaches *m* edges to existing nodes with probability proportional to their
degree, producing ``P(k) ~ k^-3``.  Its known failure modes against the AS
map — exponent too steep, clustering too low and flat in k, neutral degree
correlations, shallow k-cores (coreness = m) — are exactly what the
comparison experiments must surface.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..graph.graph import Graph
from ..stats.rng import SeedLike, make_numpy_rng, make_rng
from ..stats.sampling import distinct_in_order
from .base import TopologyGenerator, _validate_size

__all__ = ["BarabasiAlbertGenerator"]


class BarabasiAlbertGenerator(TopologyGenerator):
    """Plain BA growth: one node and *m* preferential edges per step.

    Starts from a ring of ``max(m, 3)`` seed nodes so the first arrival has
    enough distinct targets.
    """

    name = "barabasi-albert"
    engine_sensitive = True

    def __init__(self, m: int = 2):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = m

    def generate(self, n: int, seed: SeedLike = None) -> Graph:
        """Grow a BA network to exactly *n* nodes.

        The endpoint pool holds each node once per incident edge endpoint,
        so a uniform draw from it is a degree-proportional draw.  Each
        arrival draws one oversized ``integers`` batch and keeps the first
        ``m`` distinct values (the arriving node is never in the pool, so no
        exclusion is needed); edges commit through one bulk insert.
        """
        seed_size = max(self.m, 3)
        _validate_size(n, minimum=seed_size + 1)
        rng = make_rng(seed)
        np_rng = make_numpy_rng(rng.getrandbits(63))
        m = self.m
        graph = Graph(name=self.name)
        pool = np.empty(2 * (seed_size + m * (n - seed_size)), dtype=np.int64)
        fill = 0
        edges: List[tuple] = []
        with self.trace_phase("seed", size=seed_size):
            for i in range(seed_size):
                j = (i + 1) % seed_size
                edges.append((i, j))
                pool[fill] = i
                pool[fill + 1] = j
                fill += 2
        with self.trace_phase("growth", n=n):
            batch = max(4 * m, 16)
            for new in range(seed_size, n):
                targets = distinct_in_order(
                    pool[np_rng.integers(0, fill, size=batch)], m
                )
                while len(targets) < m:  # rare shortfall: top up
                    targets = distinct_in_order(
                        np.concatenate(
                            (
                                np.asarray(targets, dtype=np.int64),
                                pool[np_rng.integers(0, fill, size=batch)],
                            )
                        ),
                        m,
                    )
                for target in targets:
                    edges.append((new, target))
                    pool[fill] = new
                    pool[fill + 1] = target
                    fill += 2
            self.count_steps(n - seed_size)
        graph.add_edges(edges)
        return graph
