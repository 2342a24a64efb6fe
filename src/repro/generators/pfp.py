"""Positive-Feedback Preference model (Zhou & Mondragón 2004).

PFP was fitted directly to the AS map and reproduces its rich-club core and
disassortativity, the two features linear-preference models miss.  Its two
mechanisms:

* **nonlinear preference** — a node is chosen with probability
  ``Π(i) ∝ k_i^(1 + delta * log10 k_i)``: feedback makes large hubs *more*
  than linearly attractive, densifying the top of the hierarchy;
* **interactive growth** — when a new node attaches, its host(s)
  simultaneously develop new internal links to peers, so the core thickens
  as the edge grows.

Step mix (defaults are the published fit ``p = 0.3, q = 0.1,
delta = 0.048``):

* prob *p* — new node with 1 link to a host; the host adds 2 peer links;
* prob *q* — new node with 1 link to a host; the host adds 1 peer link;
* prob 1-p-q — new node with 2 links to two hosts; one host adds 1 peer link.
"""

from __future__ import annotations

import math
from typing import List

from ..graph.graph import Graph
from ..stats.rng import BufferedUniforms, SeedLike, make_numpy_rng, make_rng
from .base import TopologyGenerator, _validate_size

__all__ = ["PfpGenerator"]


class PfpGenerator(TopologyGenerator):
    """PFP growth with interactive host-link development."""

    name = "pfp"
    engine_sensitive = True

    def __init__(self, p: float = 0.3, q: float = 0.1, delta: float = 0.048):
        if p < 0 or q < 0 or p + q > 1:
            raise ValueError("need p, q >= 0 with p + q <= 1")
        if delta < 0:
            raise ValueError("delta must be non-negative")
        self.p = p
        self.q = q
        self.delta = delta

    def _preference(self, degree: int) -> float:
        """The PFP kernel k^(1 + delta·log10 k); 0 for isolated nodes."""
        if degree <= 0:
            return 0.0
        return degree ** (1.0 + self.delta * math.log10(degree))

    def generate(self, n: int, seed: SeedLike = None) -> Graph:
        """Grow a PFP network to exactly *n* nodes.

        Host and peer candidates are proposed ∝ k from an endpoint pool and
        accepted with probability ``k^(δ·log10 k) / M`` (*M* evaluated at
        the current maximum degree), so acceptances follow the full kernel
        :meth:`_preference`.  Draws are served from block-buffered numpy
        uniforms; edges land on the live graph (duplicate/self checks need
        it) and the pool and degree list are updated in place.
        """
        seed_size = 3
        _validate_size(n, minimum=seed_size + 1)
        rng = make_rng(seed)
        np_rng = make_numpy_rng(rng.getrandbits(63))
        uniform = BufferedUniforms(np_rng).next
        delta = self.delta
        graph = Graph(name=self.name)
        degrees = [0] * n
        pool: List[int] = []
        state = {"kmax": 1}

        def push_edge(u: int, v: int) -> None:
            graph.add_edge(u, v)
            degrees[u] += 1
            degrees[v] += 1
            pool.extend((u, v))
            top = degrees[u] if degrees[u] > degrees[v] else degrees[v]
            if top > state["kmax"]:
                state["kmax"] = top

        def draw_targets(count: int, forbid, adjacency) -> List[int]:
            """First *count* accepted, distinct, admissible targets."""
            chosen: List[int] = []
            kmax = state["kmax"]
            ceiling = kmax ** (delta * math.log10(kmax)) if kmax > 1 else 1.0
            tries = 0
            limit = 1200 * count  # bounded retries
            while len(chosen) < count and tries < limit:
                tries += 1
                cand = pool[int(uniform() * len(pool))]
                k = degrees[cand]
                # k == 1 gives ratio 1/ceiling: the kernel exponent is 0.
                if uniform() * ceiling > k ** (delta * math.log10(k)):
                    continue
                if cand in forbid or cand in chosen:
                    continue
                if adjacency is not None and cand in adjacency:
                    continue
                chosen.append(cand)
            return chosen  # may fall short: the step then gives up

        with self.trace_phase("seed", size=seed_size):
            graph.add_nodes(range(seed_size))
            for i, j in ((0, 1), (1, 2), (2, 0)):
                push_edge(i, j)

        with self.trace_phase("growth", n=n):
            for new in range(seed_size, n):
                roll = uniform()
                if roll < self.p:
                    num_hosts, develop = 1, 2
                elif roll < self.p + self.q:
                    num_hosts, develop = 1, 1
                else:
                    num_hosts, develop = 2, 1
                hosts = draw_targets(num_hosts, frozenset(), None)
                graph.add_node(new)
                for host in hosts:
                    push_edge(new, host)
                if not hosts:
                    continue  # degenerate: every proposal was rejected
                if num_hosts == 1:
                    chosen_host = hosts[0]
                else:
                    chosen_host = hosts[int(uniform() * len(hosts))]
                adjacency = graph.neighbor_weights(chosen_host)
                peers = draw_targets(develop, frozenset((chosen_host,)), adjacency)
                for peer in peers:
                    push_edge(chosen_host, peer)
            self.count_steps(n - seed_size)
        return graph
