"""Transit–stub hierarchy (GT-ITM-style, Zegura–Calvert–Bhattacharjee).

Before measurement papers showed heavy tails, the structural orthodoxy was
explicit hierarchy: a core of *transit* domains, each transit node serving
several *stub* domains.  GT-ITM graphs have realistic routing hierarchy but
nearly homogeneous degrees — the comparison table keeps the model to show
what pure hierarchy does and does not buy.

Construction here:

1. ``transit_domains`` domains, each an Erdős–Rényi graph of
   ``transit_size`` nodes (stitched connected), their domains linked by a
   random tree plus ``extra_transit_links`` shortcuts;
2. every transit node hosts ``stubs_per_transit`` stub domains of
   ``stub_size`` ER nodes, each stub wired to its transit node;
3. ``extra_stub_links`` random stub-to-stub or stub-to-transit shortcuts.

:meth:`generate` takes the usual *n* and scales ``stub_size`` so the total
lands within rounding of *n*.
"""

from __future__ import annotations

from typing import List

from ..graph.graph import Graph
from ..stats.rng import SeedLike, make_rng
from .base import GenerationError, TopologyGenerator, _validate_size

__all__ = ["TransitStubGenerator"]


class TransitStubGenerator(TopologyGenerator):
    """Three-level transit–stub topology."""

    name = "transit-stub"

    def __init__(
        self,
        transit_domains: int = 4,
        transit_size: int = 8,
        stubs_per_transit: int = 3,
        intra_edge_prob: float = 0.5,
        stub_edge_prob: float = 0.4,
        extra_transit_links: int = 3,
        extra_stub_links_fraction: float = 0.02,
    ):
        if transit_domains < 1 or transit_size < 1 or stubs_per_transit < 0:
            raise ValueError("domain counts must be positive")
        if not 0 <= intra_edge_prob <= 1 or not 0 <= stub_edge_prob <= 1:
            raise ValueError("edge probabilities must be in [0, 1]")
        self.transit_domains = transit_domains
        self.transit_size = transit_size
        self.stubs_per_transit = stubs_per_transit
        self.intra_edge_prob = intra_edge_prob
        self.stub_edge_prob = stub_edge_prob
        self.extra_transit_links = extra_transit_links
        self.extra_stub_links_fraction = extra_stub_links_fraction

    def _stub_size_for(self, n: int) -> int:
        """Stub size that brings the node total closest to *n*."""
        transit_total = self.transit_domains * self.transit_size
        stub_domains = transit_total * self.stubs_per_transit
        if stub_domains == 0:
            if n != transit_total:
                raise GenerationError(
                    f"no stubs configured: n must equal {transit_total}"
                )
            return 0
        remaining = n - transit_total
        if remaining < stub_domains:
            raise GenerationError(
                f"n={n} too small: need >= {transit_total + stub_domains} nodes"
            )
        return max(1, round(remaining / stub_domains))

    @staticmethod
    def _er_cluster(
        graph: Graph, members: List[int], prob: float, rng
    ) -> None:
        """Wire *members* as an ER graph, then stitch to guarantee
        connectivity via a random spanning chain.
        """
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if rng.random() < prob:
                    graph.add_edge(u, v)
        shuffled = list(members)
        rng.shuffle(shuffled)
        for a, b in zip(shuffled, shuffled[1:]):
            if not graph.has_edge(a, b):
                graph.add_edge(a, b)

    def generate(self, n: int, seed: SeedLike = None) -> Graph:
        """Build a transit–stub topology of approximately *n* nodes
        (exact when (n - transit nodes) divides evenly across stubs)."""
        _validate_size(n, minimum=self.transit_domains * self.transit_size)
        rng = make_rng(seed)
        stub_size = self._stub_size_for(n)
        graph = Graph(name=self.name)
        next_id = 0

        transit_nodes: List[List[int]] = []
        for _ in range(self.transit_domains):
            members = list(range(next_id, next_id + self.transit_size))
            next_id += self.transit_size
            graph.add_nodes(members)
            self._er_cluster(graph, members, self.intra_edge_prob, rng)
            transit_nodes.append(members)

        # Inter-domain backbone: random tree over domains + shortcuts.
        for index in range(1, len(transit_nodes)):
            other = rng.randrange(index)
            u = rng.choice(transit_nodes[index])
            v = rng.choice(transit_nodes[other])
            graph.add_edge(u, v)
        all_transit = [node for domain in transit_nodes for node in domain]
        for _ in range(self.extra_transit_links):
            u = rng.choice(all_transit)
            v = rng.choice(all_transit)
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v)

        stub_members_all: List[int] = []
        if stub_size > 0:
            for transit in all_transit:
                for _ in range(self.stubs_per_transit):
                    members = list(range(next_id, next_id + stub_size))
                    next_id += stub_size
                    graph.add_nodes(members)
                    if stub_size > 1:
                        self._er_cluster(
                            graph, members, self.stub_edge_prob, rng
                        )
                    graph.add_edge(rng.choice(members), transit)
                    stub_members_all.extend(members)

        extra = int(self.extra_stub_links_fraction * len(stub_members_all))
        candidates = stub_members_all + all_transit
        for _ in range(extra):
            u = rng.choice(stub_members_all)
            v = rng.choice(candidates)
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v)
        return graph
