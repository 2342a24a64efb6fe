"""Experiment harness helpers: replication and size sweeps.

Every table/figure harness repeats two motions — average a measurement
over seeds at fixed size, and sweep a measurement across sizes (for scaling
fits).  These helpers standardize both, including the seed discipline
(seeds are derived deterministically from a base seed, so re-running an
experiment reproduces it bit-for-bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generic, List, Sequence, Tuple, TypeVar

from ..generators.base import TopologyGenerator
from ..graph.graph import Graph

__all__ = ["Replicates", "replicate", "sweep_sizes", "seed_sequence"]

T = TypeVar("T")


def seed_sequence(base_seed: int, count: int) -> List[int]:
    """*count* deterministic, well-separated seeds derived from *base_seed*."""
    if count < 1:
        raise ValueError("count must be >= 1")
    golden = 0x9E3779B97F4A7C15
    return [((base_seed + i) * golden) % (1 << 62) + 1 for i in range(count)]


@dataclass(frozen=True)
class Replicates(Generic[T]):
    """Per-seed values of one scalar measurement."""

    values: Tuple[float, ...]

    @property
    def mean(self) -> float:
        """Sample mean."""
        return sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1; 0 for a single replicate)."""
        n = len(self.values)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((v - mu) ** 2 for v in self.values) / (n - 1))

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        return self.std / math.sqrt(len(self.values))

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.std:.2g} (n={len(self.values)})"


def replicate(
    generator: TopologyGenerator,
    n: int,
    metric: Callable[[Graph], float],
    seeds: int = 5,
    base_seed: int = 1,
) -> Replicates:
    """Measure *metric* on *seeds* independent topologies of size *n*, in
    this process."""
    return Replicates(
        values=tuple(
            float(metric(generator.generate(n, seed=seed)))
            for seed in seed_sequence(base_seed, seeds)
        )
    )


def sweep_sizes(
    generator: TopologyGenerator,
    sizes: Sequence[int],
    metric: Callable[[Graph], float],
    seeds: int = 3,
    base_seed: int = 1,
) -> List[Tuple[int, Replicates]]:
    """Measure *metric* across *sizes*, each averaged over *seeds*.

    Returns (size, replicates) pairs in the order given — feed the means to
    :func:`repro.stats.fit_power_scaling` for scaling exponents.  Size *n*
    is replicated from base seed ``base_seed + n``.
    """
    return [
        (n, replicate(generator, n, metric, seeds, base_seed + n)) for n in sizes
    ]
