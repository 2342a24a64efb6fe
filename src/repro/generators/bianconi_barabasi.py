"""Bianconi–Barabási fitness model.

Degree-driven growth where attachment weighs degree by an intrinsic,
time-invariant *fitness* η drawn once per node: ``Π(i) ∝ η_i k_i``.
This is the "fit get richer" refinement proposed for the internet: young
but well-run ASes can overtake incumbents, which plain BA forbids
(first-mover advantage is absolute there).  With a uniform fitness
distribution the degree distribution stays scale-free with a logarithmic
correction; with a single-valued distribution the model reduces exactly to
BA — a reduction the test suite exploits.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..graph.graph import Graph
from ..stats.rng import BufferedUniforms, SeedLike, make_numpy_rng, make_rng
from .base import TopologyGenerator, _validate_size

__all__ = ["BianconiBarabasiGenerator"]


class BianconiBarabasiGenerator(TopologyGenerator):
    """Fitness-weighted preferential attachment.

    *fitness* is a callable drawing one fitness from an rng (default:
    uniform on (0, 1]); *m* is the number of links per arriving node.
    """

    name = "bianconi-barabasi"
    engine_sensitive = True

    def __init__(self, m: int = 2, fitness: Optional[Callable] = None):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = m
        self.fitness = fitness

    def _draw_fitness(self, rng) -> float:
        if self.fitness is not None:
            value = float(self.fitness(rng))
        else:
            value = 1.0 - rng.random()  # uniform on (0, 1]
        if value <= 0:
            raise ValueError("fitness must be positive")
        return value

    def generate(self, n: int, seed: SeedLike = None) -> Graph:
        """Grow a fitness network to exactly *n* nodes.

        Proposals come from an endpoint pool (∝ k); accepting proposal *i*
        with probability ``η_i / η_max`` leaves acceptances distributed
        ∝ η k, the BB kernel.  Draws are served from block-buffered numpy
        uniforms — per-proposal work is two list lookups — and edges commit
        through one bulk insert.  Fitness draws stay on the scalar rng so
        custom ``fitness`` callables receive a ``random.Random``.
        """
        seed_size = max(self.m, 3)
        _validate_size(n, minimum=seed_size + 1)
        rng = make_rng(seed)
        np_rng = make_numpy_rng(rng.getrandbits(63))
        uniform = BufferedUniforms(np_rng).next
        m = self.m
        graph = Graph(name=self.name)
        fitness: List[float] = [self._draw_fitness(rng) for _ in range(seed_size)]
        eta_max = max(fitness)
        pool: List[int] = []
        edges: List[tuple] = []
        graph.add_nodes(range(seed_size))
        for i in range(seed_size):
            j = (i + 1) % seed_size
            edges.append((i, j))
            pool.extend((i, j))
        with self.trace_phase("growth", n=n):
            for new in range(seed_size, n):
                targets: List[int] = []
                proposals = 0
                while len(targets) < m:
                    proposals += 1
                    if proposals > 200_000:
                        raise ValueError(
                            "rejection sampling failed to find distinct items"
                        )
                    cand = pool[int(uniform() * len(pool))]
                    if uniform() * eta_max > fitness[cand]:
                        continue
                    if cand not in targets:  # m is small; list scan is cheap
                        targets.append(cand)
                eta = self._draw_fitness(rng)
                fitness.append(eta)
                if eta > eta_max:
                    eta_max = eta
                for target in targets:
                    edges.append((new, target))
                    pool.extend((new, target))
            self.count_steps(n - seed_size)
        graph.add_edges(edges)
        return graph
