"""Reference growth kernels kept as test oracles.

Every family ships one growth kernel.  The loops below are the
straightforward versions those kernels replay or resample:

* Inet and BRITE build the *same* graph as their oracles — a
  lazily-invalidated max-heap for Inet's greedy stub matching, and
  per-candidate weights with a linear-scan :func:`weighted_choice` for
  BRITE's attachment draws — so fingerprints must match;
* barabasi-albert, albert-barabasi, bianconi-barabasi, glp, pfp and
  serrano sample the same attachment kernel as their oracles from other
  draws (endpoint pools, rejection thinning and buffered numpy uniforms
  against per-draw Fenwick walks and scalar ``random.Random`` loops), so
  the KS/band suite compares their degree distributions.

Each oracle subclass overrides only the kernel, so parameters, validation
and shared set-up come from production and a mismatch points at the
kernel.  The scalar loops reproduce, draw for draw, the graphs those six
families built below 6000 nodes up to ``METRICS_VERSION`` "2".
"""

import heapq
import math
from typing import List

import numpy as np

from repro.generators import (
    AlbertBarabasiGenerator,
    BarabasiAlbertGenerator,
    BianconiBarabasiGenerator,
    BriteGenerator,
    GenerationError,
    GlpGenerator,
    InetGenerator,
    PfpGenerator,
    SerranoGenerator,
)
from repro.generators.base import _validate_size
from repro.graph import Graph
from repro.stats.rng import make_rng
from repro.stats.sampling import FenwickSampler, weighted_choice


class HeapInetGenerator(InetGenerator):
    """Inet whose step 4 resolves stubs on a lazily-invalidated max-heap."""

    @staticmethod
    def _resolve_stubs(graph, free, n_core):
        heap = [(-free[v], v) for v in range(n_core) if free[v] > 0]
        heapq.heapify(heap)
        while len(heap) > 1:
            neg, u = heapq.heappop(heap)
            if free[u] != -neg:
                continue  # stale entry
            # Find the highest-capacity partner u is not already linked to.
            partner = None
            rest = []
            while heap:
                cand_neg, cand = heapq.heappop(heap)
                if free[cand] != -cand_neg:
                    continue
                if not graph.has_edge(u, cand):
                    partner = cand
                    break
                rest.append((cand_neg, cand))
            for item in rest:
                heapq.heappush(heap, item)
            if partner is None:
                break  # u is linked to every remaining candidate
            graph.add_edge(u, partner)
            free[u] -= 1
            free[partner] -= 1
            if free[u] > 0:
                heapq.heappush(heap, (-free[u], u))
            if free[partner] > 0:
                heapq.heappush(heap, (-free[partner], partner))


class ScanBriteGenerator(BriteGenerator):
    """BRITE grown with per-candidate weights and linear-scan draws."""

    def _grow(self, graph, degrees, positions, scale, seed_size, n, rng):
        for new in range(seed_size, n):
            weights = []
            for candidate in range(new):
                w = float(degrees[candidate])
                if self.geometry:
                    a, b = positions[new], positions[candidate]
                    w *= math.exp(-math.hypot(a.x - b.x, a.y - b.y) / scale)
                weights.append(w)
            count = min(self.m, new)
            chosen: set = set()
            guard = 0
            while len(chosen) < count and guard < 50 * count:
                guard += 1
                chosen.add(weighted_choice(weights, rng))
            for target in chosen:
                graph.add_edge(new, target)
                degrees[target] += 1
            degrees[new] = graph.degree(new)


# ------------------------------------------- scalar preferential-growth loops


def preferential_targets(
    repeated_nodes: List[int], count: int, rng, exclude: int
) -> List[int]:
    """Draw *count* distinct targets ∝ degree from the endpoint list.

    ``repeated_nodes`` holds each node once per incident edge endpoint, so a
    uniform draw from it is exactly a degree-proportional draw — the classic
    O(1) trick.  *exclude* (the arriving node) is never returned.

    Rejection sampling degenerates when *count* equals the number of
    distinct candidates (the last missing node may be drawn with vanishing
    probability), so after a generous retry budget the remaining targets
    are filled by a shuffle of the not-yet-picked candidates.
    """
    if not repeated_nodes:
        raise GenerationError("no existing endpoints to attach to")
    distinct = {x for x in repeated_nodes if x != exclude}
    if count > len(distinct):
        raise GenerationError(
            f"cannot pick {count} distinct targets from {len(distinct)} candidates"
        )
    targets: set = set()
    tries = 0
    max_tries = 64 * count + 1024
    while len(targets) < count and tries < max_tries:
        tries += 1
        candidate = repeated_nodes[rng.randrange(len(repeated_nodes))]
        if candidate != exclude:
            targets.add(candidate)
    if len(targets) < count:
        remaining = sorted(distinct - targets)
        rng.shuffle(remaining)
        targets.update(remaining[: count - len(targets)])
    return list(targets)


class ScalarBarabasiAlbertGenerator(BarabasiAlbertGenerator):
    """BA grown one rejection-sampled target set per arrival."""

    def generate(self, n, seed=None):
        seed_size = max(self.m, 3)
        _validate_size(n, minimum=seed_size + 1)
        rng = make_rng(seed)
        graph = Graph(name=self.name)
        repeated: List[int] = []
        for i in range(seed_size):
            j = (i + 1) % seed_size
            graph.add_edge(i, j)
            repeated.extend((i, j))
        for new in range(seed_size, n):
            targets = preferential_targets(repeated, self.m, rng, exclude=new)
            for target in targets:
                graph.add_edge(new, target)
                repeated.extend((new, target))
        return graph


class ScalarAlbertBarabasiGenerator(AlbertBarabasiGenerator):
    """AB whose moves scan the graph's node and edge lists per step."""

    def generate(self, n, seed=None):
        seed_size = max(self.m, 3)
        _validate_size(n, minimum=seed_size + 1)
        rng = make_rng(seed)
        graph = Graph(name=self.name)
        repeated: List[int] = []
        for i in range(seed_size):
            j = (i + 1) % seed_size
            graph.add_edge(i, j)
            repeated.extend((i, j))
        next_node = seed_size
        # Guard against pathological no-progress loops when moves keep
        # failing on tiny graphs.
        stall_budget = 50 * n
        while next_node < n and stall_budget > 0:
            stall_budget -= 1
            roll = rng.random()
            if roll < self.p:
                self._add_internal_edges(graph, repeated, rng)
            elif roll < self.p + self.q:
                self._rewire_edges(graph, repeated, rng)
            else:
                targets = preferential_targets(repeated, self.m, rng, exclude=next_node)
                for target in targets:
                    graph.add_edge(next_node, target)
                    repeated.extend((next_node, target))
                next_node += 1
        if next_node < n:
            raise GenerationError("AB growth stalled before reaching target size")
        return graph

    def _add_internal_edges(self, graph, repeated, rng):
        """Move 1: m new internal edges, uniform source → preferential target."""
        nodes = list(graph.nodes())
        for _ in range(self.m):
            source = nodes[rng.randrange(len(nodes))]
            for _ in range(20):  # bounded retries when the draw is invalid
                target = repeated[rng.randrange(len(repeated))]
                if target != source and not graph.has_edge(source, target):
                    graph.add_edge(source, target)
                    repeated.extend((source, target))
                    break

    def _rewire_edges(self, graph, repeated, rng):
        """Move 2: m rewires — detach a random endpoint pair, reattach the
        kept endpoint preferentially."""
        edges = list(graph.edges())
        if not edges:
            return
        for _ in range(self.m):
            u, v = edges[rng.randrange(len(edges))]
            if not graph.has_edge(u, v):
                continue  # already rewired away this round
            keep, drop = (u, v) if rng.random() < 0.5 else (v, u)
            if graph.degree(drop) <= 1:
                continue  # avoid disconnecting leaves
            for _ in range(20):
                target = repeated[rng.randrange(len(repeated))]
                if target not in (keep, drop) and not graph.has_edge(keep, target):
                    graph.remove_edge(keep, drop)
                    graph.add_edge(keep, target)
                    repeated[repeated.index(drop)] = target
                    break


class FenwickGlpGenerator(GlpGenerator):
    """GLP drawing every shifted-linear preference from a Fenwick tree."""

    def generate(self, n, seed=None):
        seed_size = 3
        _validate_size(n, minimum=seed_size + 1)
        rng = make_rng(seed)
        graph = Graph(name=self.name)
        sampler = FenwickSampler(seed=rng)
        # Seed: a triangle, so internal-edge moves have somewhere to land.
        for i in range(seed_size):
            graph.add_node(i)
            sampler.append(0.0)
        for i, j in ((0, 1), (1, 2), (2, 0)):
            graph.add_edge(i, j)
        for i in range(seed_size):
            sampler.update(i, graph.degree(i) - self.beta)
        next_node = seed_size
        stall_budget = 100 * n
        while next_node < n:
            if stall_budget <= 0:
                raise GenerationError("GLP growth stalled before reaching target size")
            stall_budget -= 1
            m_step = self._links_this_step(rng)
            if rng.random() < self.p:
                self._add_internal_links(graph, sampler, m_step)
            else:
                self._add_node(graph, sampler, next_node, m_step)
                next_node += 1
        return graph

    def _links_this_step(self, rng):
        """Realize the possibly fractional m as an integer for one step."""
        whole = int(self.m)
        frac = self.m - whole
        return whole + (1 if rng.random() < frac else 0)

    @staticmethod
    def _add_internal_links(graph, sampler, count):
        """Add *count* edges between preferentially chosen existing pairs."""
        for _ in range(count):
            for _ in range(30):  # bounded retries on duplicates
                i = sampler.sample()
                j = sampler.sample()
                if i != j and not graph.has_edge(i, j):
                    graph.add_edge(i, j)
                    sampler.add(i, 1.0)
                    sampler.add(j, 1.0)
                    break

    def _add_node(self, graph, sampler, node, count):
        """Add *node* with min(count, existing) preferential links."""
        count = min(count, len(sampler))
        targets: set = set()
        tries = 0
        while len(targets) < count and tries < 200:
            targets.add(sampler.sample())
            tries += 1
        graph.add_node(node)
        sampler.append(0.0)
        for target in targets:
            graph.add_edge(node, target)
            sampler.add(target, 1.0)
        sampler.update(node, graph.degree(node) - self.beta)


class FenwickPfpGenerator(PfpGenerator):
    """PFP drawing every nonlinear preference from a Fenwick tree."""

    def generate(self, n, seed=None):
        seed_size = 3
        _validate_size(n, minimum=seed_size + 1)
        rng = make_rng(seed)
        graph = Graph(name=self.name)
        sampler = FenwickSampler(seed=rng)
        for i in range(seed_size):
            graph.add_node(i)
            sampler.append(0.0)
        for i, j in ((0, 1), (1, 2), (2, 0)):
            graph.add_edge(i, j)
        for i in range(seed_size):
            sampler.update(i, self._preference(graph.degree(i)))
        for new in range(seed_size, n):
            roll = rng.random()
            if roll < self.p:
                hosts = self._attach_new(graph, sampler, new, num_hosts=1)
                self._develop_links(graph, sampler, hosts[0], count=2)
            elif roll < self.p + self.q:
                hosts = self._attach_new(graph, sampler, new, num_hosts=1)
                self._develop_links(graph, sampler, hosts[0], count=1)
            else:
                hosts = self._attach_new(graph, sampler, new, num_hosts=2)
                chosen = hosts[rng.randrange(len(hosts))]
                self._develop_links(graph, sampler, chosen, count=1)
        return graph

    def _refresh(self, graph, sampler, node):
        """Recompute a node's nonlinear preference after a degree change."""
        sampler.update(node, self._preference(graph.degree(node)))

    def _attach_new(self, graph, sampler, new, num_hosts):
        """Create node *new* linked to *num_hosts* distinct hosts."""
        hosts = sampler.sample_distinct(min(num_hosts, len(sampler)))
        graph.add_node(new)
        sampler.append(0.0)
        for host in hosts:
            graph.add_edge(new, host)
            self._refresh(graph, sampler, host)
        self._refresh(graph, sampler, new)
        return hosts

    def _develop_links(self, graph, sampler, host, count):
        """The host adds *count* internal links to preferential peers."""
        for _ in range(count):
            for _ in range(30):  # bounded retries on duplicates
                peer = sampler.sample()
                if peer != host and not graph.has_edge(host, peer):
                    graph.add_edge(host, peer)
                    self._refresh(graph, sampler, host)
                    self._refresh(graph, sampler, peer)
                    break


class FenwickBianconiBarabasiGenerator(BianconiBarabasiGenerator):
    """BB drawing every η·k preference from a Fenwick tree."""

    def generate(self, n, seed=None):
        seed_size = max(self.m, 3)
        _validate_size(n, minimum=seed_size + 1)
        rng = make_rng(seed)
        graph = Graph(name=self.name)
        sampler = FenwickSampler(seed=rng)
        fitnesses = []
        for i in range(seed_size):
            graph.add_node(i)
            fitnesses.append(self._draw_fitness(rng))
            sampler.append(0.0)
        for i in range(seed_size):
            j = (i + 1) % seed_size
            graph.add_edge(i, j)
        for i in range(seed_size):
            sampler.update(i, fitnesses[i] * graph.degree(i))
        for new in range(seed_size, n):
            count = min(self.m, len(sampler))
            targets = sampler.sample_distinct(count)
            graph.add_node(new)
            fitnesses.append(self._draw_fitness(rng))
            sampler.append(0.0)
            for target in targets:
                graph.add_edge(new, target)
                sampler.update(target, fitnesses[target] * graph.degree(target))
            sampler.update(new, fitnesses[new] * graph.degree(new))
        return graph


class FenwickSerranoGenerator(SerranoGenerator):
    """Serrano seeding ASes one at a time and matching one pair per draw.

    The adaptation round draws each pair from a Fenwick tree re-weighted
    after every link, and takes its distance acceptance and reinforcement
    draws from the same scalar stream as the fractal placement.
    """

    def generate_detailed(self, n, seed=None, snapshot_sizes=None):
        self._rng = make_rng(seed)
        return super().generate_detailed(
            n, seed=self._rng, snapshot_sizes=snapshot_sizes
        )

    def _spawn_nodes(self, graph, omega, first_id, count, np_rng):
        for new_id in range(first_id, first_id + count):
            self._spawn_node(graph, omega, new_id, np_rng)

    @staticmethod
    def _acceptance(omega_i, omega_j, distance, kappa, w_total):
        """Distance acceptance exp(-d/d_c) with d_c = ω_i ω_j / (κ W)."""
        if kappa <= 0 or w_total <= 0:
            return 0.0
        d_c = omega_i * omega_j / (kappa * w_total)
        if d_c <= 0:
            return 0.0
        exponent = -distance / d_c
        return math.exp(exponent) if exponent > -700.0 else 0.0

    def _adapt(
        self, graph, omega, strength, num_nodes, bandwidth_target, xs, ys,
        kappa, np_rng,
    ):
        """One adaptation round: compute activities and match active pairs."""
        rng = self._rng
        w_total = float(omega[:num_nodes].sum())
        a_t = 2.0 * bandwidth_target / w_total
        desired = np.maximum(1.0 + a_t * (omega[:num_nodes] - self.omega0), 1.0)
        need = np.floor(desired - strength[:num_nodes] + 0.5)
        need = np.maximum(need, 0.0)
        active = np.nonzero(need)[0]
        if active.size < 2:
            return
        sampler = FenwickSampler((float(need[i]) for i in active), seed=rng)
        index_of = {int(node): pos for pos, node in enumerate(active)}
        remaining = {int(node): int(need[node]) for node in active}
        budget = int(50 + 30 * need.sum())

        def consume(node):
            remaining[node] -= 1
            strength[node] += 1
            sampler.update(index_of[node], float(max(remaining[node], 0)))

        while budget > 0 and sampler.total > 0:
            budget -= 1
            pos_i = sampler.sample()
            i = int(active[pos_i])
            # Mask i out while drawing the partner.
            saved = sampler.weight(pos_i)
            sampler.update(pos_i, 0.0)
            if sampler.total <= 0:
                sampler.update(pos_i, saved)
                break
            pos_j = sampler.sample()
            sampler.update(pos_i, saved)
            j = int(active[pos_j])
            if xs is not None:
                distance = math.hypot(
                    float(xs[i]) - float(xs[j]), float(ys[i]) - float(ys[j])
                )
                accept = self._acceptance(
                    float(omega[i]), float(omega[j]), distance, kappa, w_total
                )
                if rng.random() >= accept:
                    continue
            graph.add_edge(i, j)
            consume(i)
            consume(j)
            # Bandwidth reinforcement: parallel units with probability r.
            while remaining[i] > 0 and remaining[j] > 0 and rng.random() < self.r:
                graph.add_edge(i, j)
                consume(i)
                consume(j)
