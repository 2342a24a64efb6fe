"""Power-Law Random Graph (Aiello–Chung–Lu).

The structural counterpoint to growth models: prescribe a power-law degree
sequence outright, then wire stubs uniformly at random (the configuration
model) and collapse the resulting self-loops and multi-edges.  PLRG matches
the AS map's degree distribution *by construction* while carrying none of
its correlation, clustering or core structure — which is exactly the
distinction the comparison experiments are designed to expose.
"""

from __future__ import annotations

from typing import List, Optional

from ..graph.graph import Graph
from ..stats.powerlaw import sample_discrete_powerlaw
from ..stats.rng import SeedLike, make_rng, spawn_seed
from .base import GenerationError, TopologyGenerator, _validate_size

__all__ = ["PlrgGenerator", "configuration_model"]


def configuration_model(
    degrees: List[int],
    seed: SeedLike = None,
    name: str = "configuration",
) -> Graph:
    """Wire a degree sequence by uniform stub matching.

    Self-loops are dropped and parallel stub pairs collapse into a single
    simple edge, so realized degrees can fall slightly below the prescribed
    ones — the standard simple-graph projection used when PLRG is compared
    against AS maps.  The degree sum must be even.
    """
    if any(d < 0 for d in degrees):
        raise GenerationError("degrees must be non-negative")
    if sum(degrees) % 2 != 0:
        raise GenerationError("degree sum must be even")
    rng = make_rng(seed)
    stubs: List[int] = []
    for node, degree in enumerate(degrees):
        stubs.extend([node] * degree)
    rng.shuffle(stubs)
    graph = Graph(name=name)
    graph.add_nodes(range(len(degrees)))
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


class PlrgGenerator(TopologyGenerator):
    """PLRG: power-law degree sequence + configuration wiring.

    ``gamma`` is the target exponent, ``k_min`` the minimum degree, and
    ``k_max_fraction`` caps the largest sampled degree at that fraction of n
    (the structural cutoff; without it the collapse step distorts the tail).
    """

    name = "plrg"

    def __init__(
        self,
        gamma: float = 2.2,
        k_min: int = 1,
        k_max_fraction: float = 0.5,
    ):
        if gamma <= 1:
            raise ValueError("gamma must exceed 1")
        if k_min < 1:
            raise ValueError("k_min must be >= 1")
        if not 0 < k_max_fraction <= 1:
            raise ValueError("k_max_fraction must be in (0, 1]")
        self.gamma = gamma
        self.k_min = k_min
        self.k_max_fraction = k_max_fraction

    def degree_sequence(self, n: int, seed: SeedLike = None) -> List[int]:
        """Sample the prescribed degree sequence (even sum guaranteed)."""
        _validate_size(n, minimum=2)
        rng = make_rng(seed)
        k_max = max(self.k_min + 1, int(n * self.k_max_fraction))
        degrees = sample_discrete_powerlaw(
            self.gamma, n, x_min=self.k_min, x_max=k_max, seed=spawn_seed(rng)
        )
        if sum(degrees) % 2 != 0:
            # Parity fix: bump one minimum-degree node by one stub.
            degrees[degrees.index(min(degrees))] += 1
        return degrees

    def generate(self, n: int, seed: SeedLike = None) -> Graph:
        """Sample a PLRG with *n* nodes (some may be isolated after collapse)."""
        rng = make_rng(seed)
        degrees = self.degree_sequence(n, seed=rng)
        with self.trace_phase("wire", n=n):
            return configuration_model(
                degrees, seed=rng, name=self.name
            )
