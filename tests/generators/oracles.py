"""Reference growth kernels kept as test oracles.

Inet and BRITE each ship one growth kernel: free-count buckets for Inet's
greedy stub matching, and a cumulative-weight ``searchsorted`` for BRITE's
attachment draws.  The loops below are the straightforward versions those
kernels replay — a lazily-invalidated max-heap, and per-candidate weights
with a linear-scan :func:`weighted_choice`.  Each oracle subclass overrides
only the kernel method, so degree sampling, placement and the seed ring are
shared with production and a fingerprint mismatch points at the kernel.
"""

import heapq
import math

from repro.generators import BriteGenerator, InetGenerator
from repro.stats.sampling import weighted_choice


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
