"""Generalized Linear Preference model (Bu & Towsley 2002).

GLP was built to fix the two gaps plain BA leaves against the AS map: its
exponent is pinned at 3 and its clustering is far too low.  Two changes fix
both: the preference is *shifted linear*, ``Π(i) ∝ k_i − beta`` with
``beta < 1`` (small-degree nodes become relatively less attractive, lowering
the exponent), and with probability *p* a step adds internal edges between
existing nodes instead of a new node (raising clustering and density).

Defaults are the parameters Bu & Towsley fitted to the AS map:
``m = 1.13, p = 0.4695, beta = 0.6447``.  Non-integer *m* is realized per
step as ``floor(m)`` plus a Bernoulli on the fractional part, so the mean
links-per-step matches the fitted value.
"""

from __future__ import annotations

from typing import List

from ..graph.graph import Graph
from ..stats.rng import BufferedUniforms, SeedLike, make_numpy_rng, make_rng
from .base import GenerationError, TopologyGenerator, _validate_size

__all__ = ["GlpGenerator"]


class GlpGenerator(TopologyGenerator):
    """GLP growth with shifted-linear preference and internal edge moves."""

    name = "glp"
    engine_sensitive = True

    def __init__(self, m: float = 1.13, p: float = 0.4695, beta: float = 0.6447):
        if m < 1:
            raise ValueError("m must be >= 1")
        if not 0 <= p < 1:
            raise ValueError("p must be in [0, 1)")
        if beta >= 1:
            raise ValueError("beta must be < 1 so every weight stays positive")
        self.m = m
        self.p = p
        self.beta = beta

    def generate(self, n: int, seed: SeedLike = None) -> Graph:
        """Grow a GLP network to exactly *n* nodes.

        The shifted preference ``Π(i) ∝ k_i − β`` splits into ``(k_i − 1)``
        endpoint-pool slots plus a ``(1 − β)`` uniform-node share; one
        buffered uniform decides the branch and (re-used, still uniform)
        indexes it, an O(1) draw.  The pool gains one slot per degree a
        node acquires beyond its first.
        """
        seed_size = 3
        _validate_size(n, minimum=seed_size + 1)
        rng = make_rng(seed)
        np_rng = make_numpy_rng(rng.getrandbits(63))
        uniform_share = 1.0 - self.beta
        whole = int(self.m)
        frac = self.m - whole

        next_uniform = BufferedUniforms(np_rng).next

        graph = Graph(name=self.name)
        pool: List[int] = []  # node id once per degree above 1
        num_nodes = seed_size

        def draw_node() -> int:
            pool_len = len(pool)
            u = next_uniform() * (pool_len + num_nodes * uniform_share)
            if u < pool_len:
                return pool[int(u)]
            return min(int((u - pool_len) / uniform_share), num_nodes - 1)

        with self.trace_phase("seed", size=seed_size):
            graph.add_nodes(range(seed_size))
            for i, j in ((0, 1), (1, 2), (2, 0)):
                graph.add_edge(i, j)
            pool.extend(range(seed_size))  # triangle: degree 2 → one slot each

        with self.trace_phase("growth", n=n):
            next_node = seed_size
            steps = 0
            stall_budget = 100 * n
            while next_node < n:
                if stall_budget <= 0:
                    raise GenerationError(
                        "GLP growth stalled before reaching target size"
                    )
                stall_budget -= 1
                steps += 1
                m_step = whole + (1 if next_uniform() < frac else 0)
                if next_uniform() < self.p:
                    for _ in range(m_step):
                        for _ in range(30):  # bounded retries on duplicates
                            i = draw_node()
                            j = draw_node()
                            if i != j and not graph.has_edge(i, j):
                                graph.add_edge(i, j)
                                pool.append(i)
                                pool.append(j)
                                break
                else:
                    count = min(m_step, num_nodes)
                    targets: set = set()
                    tries = 0
                    while len(targets) < count and tries < 200:
                        targets.add(draw_node())
                        tries += 1
                    node = next_node
                    graph.add_node(node)
                    for target in targets:
                        graph.add_edge(node, target)
                        pool.append(target)
                    pool.extend([node] * (len(targets) - 1))
                    num_nodes += 1
                    next_node += 1
            self.count_steps(steps)
        return graph
