"""Inet-3.0-style structural generator (Jin, Chen & Jamin 2000).

Inet observed that the AS map is roughly 30% degree-1 nodes while the rest
follow a power law, and that naive stub matching leaves the graph shattered.
Its recipe, reproduced here:

1. assign degrees — a fixed fraction gets degree 1, the remainder is drawn
   from a power law with minimum degree 2;
2. build a spanning tree over the degree ≥ 2 nodes, attaching each node to
   an already-connected one with probability proportional to its target
   degree (so hubs sit near the center);
3. attach every degree-1 node to a connected node with free stubs,
   preferentially by remaining capacity;
4. resolve remaining free stubs pairwise, always starting from the node
   with the most unfilled stubs, matching it to the highest-capacity
   non-neighbor.

The output is connected by construction and keeps a heavy tail, but — like
PLRG — carries no growth-induced correlations, which is its documented
signature in the comparison table.
"""

from __future__ import annotations

from bisect import insort
from typing import List

from ..graph.graph import Graph
from ..stats.powerlaw import sample_discrete_powerlaw
from ..stats.rng import SeedLike, make_rng, spawn_seed
from ..stats.sampling import FenwickSampler
from .base import GenerationError, TopologyGenerator, _validate_size

__all__ = ["InetGenerator"]


class InetGenerator(TopologyGenerator):
    """Inet-style generator with degree-1 fraction and power-law core."""

    name = "inet"

    def __init__(
        self,
        gamma: float = 2.2,
        degree_one_fraction: float = 0.3,
        k_max_fraction: float = 0.3,
    ):
        if gamma <= 1:
            raise ValueError("gamma must exceed 1")
        if not 0 <= degree_one_fraction < 1:
            raise ValueError("degree_one_fraction must be in [0, 1)")
        if not 0 < k_max_fraction <= 1:
            raise ValueError("k_max_fraction must be in (0, 1]")
        self.gamma = gamma
        self.degree_one_fraction = degree_one_fraction
        self.k_max_fraction = k_max_fraction

    def generate(self, n: int, seed: SeedLike = None) -> Graph:
        """Build an Inet-style topology with exactly *n* nodes."""
        _validate_size(n, minimum=4)
        rng = make_rng(seed)
        n_leaf = int(n * self.degree_one_fraction)
        n_core = n - n_leaf
        if n_core < 2:
            raise GenerationError("too few core nodes; lower degree_one_fraction")
        k_max = max(3, int(n * self.k_max_fraction))
        core_degrees = sample_discrete_powerlaw(
            self.gamma, n_core, x_min=2, x_max=k_max, seed=spawn_seed(rng)
        )
        targets: List[int] = core_degrees + [1] * n_leaf

        graph = Graph(name=self.name)
        graph.add_nodes(range(n))
        free = list(targets)

        # Step 2 — spanning tree over core nodes, weighted by target degree.
        order = list(range(n_core))
        rng.shuffle(order)
        in_tree = FenwickSampler(seed=rng)
        tree_members: List[int] = []
        for position, node in enumerate(order):
            if position == 0:
                in_tree.append(float(targets[node]))
                tree_members.append(node)
                continue
            # Resample while the chosen anchor has no free stubs.
            anchor_idx = in_tree.sample()
            for _ in range(50):
                if free[tree_members[anchor_idx]] > 0:
                    break
                anchor_idx = in_tree.sample()
            anchor = tree_members[anchor_idx]
            graph.add_edge(node, anchor)
            free[node] -= 1
            free[anchor] -= 1
            # Weight by *remaining* attractiveness; floor at 1 so the tree
            # can always extend even if a hub fills up early.
            in_tree.update(anchor_idx, float(max(free[anchor], 1)))
            in_tree.append(float(max(free[node], 1)))
            tree_members.append(node)

        # Step 3 — hang the degree-1 leaves off capacity-weighted cores.
        capacity = FenwickSampler(
            (float(max(free[c], 0)) for c in range(n_core)), seed=rng
        )
        for leaf in range(n_core, n):
            if capacity.total <= 0:
                # Every core stub is spent: attach uniformly so the graph
                # stays connected (degrees exceed targets slightly).
                anchor = rng.randrange(n_core)
            else:
                anchor = capacity.sample()
                capacity.add(anchor, -1.0)
                free[anchor] -= 1
            graph.add_edge(leaf, anchor)
            free[leaf] -= 1

        # Step 4 — greedy stub resolution, biggest remaining first.
        with self.trace_phase("resolve", n=n):
            self._resolve_stubs(graph, free, n_core)
        return graph

    @staticmethod
    def _resolve_stubs(graph: Graph, free: List[int], n_core: int) -> None:
        """Greedy stub matching from free-count buckets.

        ``buckets[f]`` holds (sorted) the nodes whose remaining capacity is
        exactly *f*, so "largest free first, smallest id on ties" is a
        descending bucket walk with no stale entries to churn through.
        Capacities only decrease, hence the max-bucket pointer only
        descends.  Adds the same edges, in the same order, as a
        lazily-invalidated max-heap greedy would.
        """
        max_free = 0
        buckets: dict = {}
        live = 0
        for v in range(n_core):
            if free[v] > 0:
                buckets.setdefault(free[v], []).append(v)
                live += 1
                if free[v] > max_free:
                    max_free = free[v]
        for bucket in buckets.values():
            bucket.sort()

        def take(node: int, f: int) -> None:
            bucket = buckets[f]
            bucket.remove(node)
            new_f = f - 1
            if new_f > 0:
                insort(buckets.setdefault(new_f, []), node)

        while live > 1:
            while max_free > 0 and not buckets.get(max_free):
                max_free -= 1
            if max_free <= 0:
                break
            u = buckets[max_free][0]
            adj_u = graph.neighbor_weights(u)
            partner = None
            partner_f = 0
            f = max_free
            while f > 0:
                for cand in buckets.get(f, ()):
                    if cand != u and cand not in adj_u:
                        partner = cand
                        partner_f = f
                        break
                if partner is not None:
                    break
                f -= 1
            if partner is None:
                break  # u is linked to every remaining candidate
            u_f = max_free
            take(u, u_f)
            take(partner, partner_f)
            graph.add_edge(u, partner)
            free[u] -= 1
            free[partner] -= 1
            live -= (free[u] == 0) + (free[partner] == 0)
