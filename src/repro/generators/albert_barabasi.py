"""Extended Barabási–Albert model (Albert & Barabási 2000).

Adds two internal evolution moves to plain BA growth.  At each step, with
probability *p* add ``m`` new edges between existing nodes (one endpoint
uniform, the other preferential); with probability *q* rewire ``m`` existing
edges toward preferential targets; otherwise add a new node with ``m``
preferential edges.  Internal edge addition flattens the degree exponent
below 3, which is how the AB model reaches the AS map's γ ≈ 2.2 — its main
claim in the generator-comparison literature.
"""

from __future__ import annotations

from typing import Dict, List

from ..graph.graph import Graph
from ..stats.rng import BufferedUniforms, SeedLike, make_numpy_rng, make_rng
from ..stats.sampling import distinct_in_order
from .base import GenerationError, TopologyGenerator, _validate_size

__all__ = ["AlbertBarabasiGenerator"]


class AlbertBarabasiGenerator(TopologyGenerator):
    """AB extended model with moves (add-edges p, rewire q, grow 1-p-q)."""

    name = "albert-barabasi"
    engine_sensitive = True

    def __init__(self, m: int = 2, p: float = 0.35, q: float = 0.1):
        if m < 1:
            raise ValueError("m must be >= 1")
        if p < 0 or q < 0 or p + q >= 1:
            raise ValueError("need p, q >= 0 and p + q < 1")
        self.m = m
        self.p = p
        self.q = q

    def generate(self, n: int, seed: SeedLike = None) -> Graph:
        """Grow the network until it holds exactly *n* nodes.

        Every move — grow, internal edge, rewire — runs in constant time on
        slot-mapped pools: a contiguous node range, an edge list with a
        position map (swap-with-last removal), and an endpoint pool with
        per-node slot lists.  Draws come from block-buffered numpy uniforms.
        """
        seed_size = max(self.m, 3)
        _validate_size(n, minimum=seed_size + 1)
        rng = make_rng(seed)
        np_rng = make_numpy_rng(rng.getrandbits(63))
        uniform = BufferedUniforms(np_rng).next
        m = self.m
        graph = Graph(name=self.name)

        pool: List[int] = []  # one slot per edge endpoint, ∝ degree
        slots: Dict[int, List[int]] = {}  # node → its pool slot indices
        edge_list: List[tuple] = []
        edge_pos: Dict[tuple, int] = {}

        def pool_add(node: int) -> None:
            slots.setdefault(node, []).append(len(pool))
            pool.append(node)

        def pool_swap(old: int, new: int) -> None:
            idx = slots[old].pop()
            pool[idx] = new
            slots.setdefault(new, []).append(idx)

        def edge_add(u: int, v: int) -> None:
            graph.add_edge(u, v)
            key = (u, v) if u < v else (v, u)
            edge_pos[key] = len(edge_list)
            edge_list.append(key)

        def edge_remove(u: int, v: int) -> None:
            graph.remove_edge(u, v)
            key = (u, v) if u < v else (v, u)
            pos = edge_pos.pop(key)
            last = edge_list.pop()
            if last != key:
                edge_list[pos] = last
                edge_pos[last] = pos

        for i in range(seed_size):
            j = (i + 1) % seed_size
            edge_add(i, j)
            pool_add(i)
            pool_add(j)
        next_node = seed_size
        stall_budget = 50 * n
        steps = 0
        with self.trace_phase("growth", n=n):
            while next_node < n and stall_budget > 0:
                stall_budget -= 1
                steps += 1
                roll = uniform()
                if roll < self.p:
                    # Move 1: m internal edges, uniform source → preferential.
                    for _ in range(m):
                        source = int(uniform() * next_node)
                        for _ in range(20):
                            target = pool[int(uniform() * len(pool))]
                            if target != source and not graph.has_edge(source, target):
                                edge_add(source, target)
                                pool_add(source)
                                pool_add(target)
                                break
                elif roll < self.p + self.q:
                    # Move 2: m rewires toward preferential targets.
                    if not edge_list:
                        continue
                    for _ in range(m):
                        u, v = edge_list[int(uniform() * len(edge_list))]
                        if not graph.has_edge(u, v):
                            continue  # already rewired away this round
                        keep, drop = (u, v) if uniform() < 0.5 else (v, u)
                        if graph.degree(drop) <= 1:
                            continue  # avoid disconnecting leaves
                        for _ in range(20):
                            target = pool[int(uniform() * len(pool))]
                            if target not in (keep, drop) and not graph.has_edge(
                                keep, target
                            ):
                                edge_remove(keep, drop)
                                edge_add(keep, target)
                                pool_swap(drop, target)
                                break
                else:
                    # Move 3: grow — new node with m preferential targets.
                    new = next_node
                    batch = max(4 * m, 16)
                    targets = distinct_in_order(
                        (pool[int(uniform() * len(pool))] for _ in range(batch)), m
                    )
                    tries = 0
                    while len(targets) < m and tries < 200:
                        tries += 1
                        cand = pool[int(uniform() * len(pool))]
                        if cand not in targets:
                            targets.append(cand)
                    for target in targets:
                        edge_add(new, target)
                        pool_add(new)
                        pool_add(target)
                    next_node += 1
            self.count_steps(steps)
        if next_node < n:
            raise GenerationError("AB growth stalled before reaching target size")
        return graph
