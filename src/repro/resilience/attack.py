"""Attack and failure tolerance (Albert–Jeong–Barabási).

The classic robustness result on internet maps: heavy-tailed topologies
are extraordinarily tolerant of *random* node failure (the giant component
survives removal of most nodes) yet fragile under *targeted* removal of the
highest-degree hubs — a handful of ASes hold the map together.  The
functions here run removal sweeps and report the giant-component fraction
trajectory plus the critical fraction where it collapses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..graph.betweenness import approximate_betweenness
from ..graph.graph import Graph
from ..graph.traversal import connected_components
from ..stats.rng import SeedLike, make_rng

__all__ = [
    "AttackStrategy",
    "RemovalTrajectory",
    "removal_sweep",
    "victim_order",
    "critical_fraction",
]

Node = Hashable


class AttackStrategy(enum.Enum):
    """How victims are chosen."""

    RANDOM = "random"
    DEGREE = "degree"              # highest current degree first (recomputed)
    DEGREE_STATIC = "degree-static"  # by initial degree, precomputed
    BETWEENNESS = "betweenness"    # by initial betweenness, precomputed


@dataclass(frozen=True)
class RemovalTrajectory:
    """Giant-component fraction as nodes are removed.

    ``fractions_removed[i]`` and ``giant_fractions[i]`` describe the state
    after the i-th measurement; both start at (0.0, 1.0).
    """

    strategy: AttackStrategy
    fractions_removed: Tuple[float, ...]
    giant_fractions: Tuple[float, ...]

    def as_points(self) -> List[Tuple[float, float]]:
        """(fraction removed, giant fraction) pairs for plotting."""
        return list(zip(self.fractions_removed, self.giant_fractions))

    def giant_at(self, removed_fraction: float) -> float:
        """Giant fraction at the last measurement <= *removed_fraction*."""
        best = self.giant_fractions[0]
        for f, g in zip(self.fractions_removed, self.giant_fractions):
            if f <= removed_fraction + 1e-12:
                best = g
            else:
                break
        return best


def _giant_fraction(graph: Graph, original_n: int) -> float:
    if graph.num_nodes == 0 or original_n == 0:
        return 0.0
    components = connected_components(graph)
    return (len(components[0]) if components else 0) / original_n


def victim_order(
    graph: Graph, strategy: AttackStrategy, rng, betweenness_pivots: int = 100
) -> List[Node]:
    """Precomputed removal order for the non-adaptive strategies.

    Equal scores (duplicate degrees, tied betweenness) are broken by the
    graph's node iteration order — a stable sort over ``graph.nodes()``, so
    ties fall to the earliest-inserted node id.  That makes the ordering a
    pure function of the graph, which is what lets the CSR sweep in
    :mod:`repro.resilience.sweep` (where array positions follow the same
    iteration order) reproduce :func:`removal_sweep` bit-for-bit.

    Betweenness scores come from the CSR Brandes kernel, whose float sums
    can split by an ulp a tie that exact arithmetic would keep; the split
    then decides the order.  On barabasi-albert n=60 seed 2, nodes 22 and
    26 tie at 0.0065950122349888556 in a one-source-at-a-time Brandes,
    while the CSR kernel scores 26 one ulp higher and removes it first.

    ``ADAPTIVE`` degree (:attr:`AttackStrategy.DEGREE`) has no precomputed
    order and raises; it is handled inline by the sweeps.
    """
    nodes = list(graph.nodes())
    if strategy is AttackStrategy.RANDOM:
        rng.shuffle(nodes)
        return nodes
    if strategy is AttackStrategy.DEGREE_STATIC:
        return sorted(nodes, key=lambda n: -graph.degree(n))
    if strategy is AttackStrategy.BETWEENNESS:
        scores = approximate_betweenness(
            graph, num_pivots=min(betweenness_pivots, len(nodes)), seed=rng
        )
        return sorted(nodes, key=lambda n: -scores[n])
    raise ValueError(f"strategy {strategy} needs adaptive handling")


def removal_sweep(
    graph: Graph,
    strategy: AttackStrategy = AttackStrategy.RANDOM,
    max_fraction: float = 0.5,
    steps: int = 20,
    seed: SeedLike = 0,
    betweenness_pivots: int = 100,
) -> RemovalTrajectory:
    """Remove up to *max_fraction* of nodes, measuring at *steps* points.

    ``DEGREE`` recomputes the top-degree victim adaptively after every
    removal batch (the strongest attack); the other strategies precompute
    their ordering via :func:`victim_order`.  Equal degrees/betweenness are
    always broken by node iteration order, so the sweep is a pure function
    of (graph, strategy, seed) — the contract the vectorized sweep in
    :mod:`repro.resilience.sweep` reproduces bit-for-bit.  The input graph
    is never mutated.
    """
    if not 0 < max_fraction <= 1:
        raise ValueError("max_fraction must be in (0, 1]")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = make_rng(seed)
    work = graph.copy()
    original_n = graph.num_nodes
    if original_n == 0:
        raise ValueError("cannot attack an empty graph")

    total_victims = int(max_fraction * original_n)
    batch = max(total_victims // steps, 1)
    adaptive = strategy is AttackStrategy.DEGREE
    order: List[Node] = []
    if not adaptive:
        order = victim_order(work, strategy, rng, betweenness_pivots)

    fractions = [0.0]
    giants = [_giant_fraction(work, original_n)]
    removed = 0
    cursor = 0
    while removed < total_victims:
        for _ in range(min(batch, total_victims - removed)):
            if adaptive:
                # max() keeps the first maximal element, so equal degrees
                # fall to the earliest surviving node in iteration order —
                # the same deterministic tie-break as victim_order().
                victim = max(work.nodes(), key=work.degree)
            else:
                victim = order[cursor]
                cursor += 1
            work.remove_node(victim)
            removed += 1
        fractions.append(removed / original_n)
        giants.append(_giant_fraction(work, original_n))
    return RemovalTrajectory(
        strategy=strategy,
        fractions_removed=tuple(fractions),
        giant_fractions=tuple(giants),
    )


def critical_fraction(
    trajectory: RemovalTrajectory, collapse_threshold: float = 0.05
) -> Optional[float]:
    """First removal fraction where the giant drops below the threshold.

    None when the network never collapses within the sweep — itself the
    headline result for random failure on heavy-tailed maps.
    """
    if not 0 < collapse_threshold < 1:
        raise ValueError("collapse_threshold must be in (0, 1)")
    for f, g in zip(trajectory.fractions_removed, trajectory.giant_fractions):
        if g < collapse_threshold:
            return f
    return None
