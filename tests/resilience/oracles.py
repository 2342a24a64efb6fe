"""Reference robustness kernels kept as test oracles.

The percolation, path-inflation and shortcut kernels in
:mod:`repro.resilience.sweep` run on the CSR view.  Their references:

* :func:`repro.resilience.attack.removal_sweep` for
  :func:`~repro.resilience.sweep.percolation_sweep` — it stays public,
  recomputing components after every removal batch;
* the graph-copy, dict-BFS inflation sweep and the per-edge neighbor-set
  shortcut loop below, which production replaced;
* a link-removal BFS for :func:`~repro.resilience.sweep.link_redundancy`,
  independent of the Tarjan bridge search production shares.

:data:`ORACLES` maps each production kernel to its oracle, for
:func:`tests.graph.oracles.reference`.
"""

from typing import List

from repro.graph.graph import Graph
from repro.graph.traversal import bfs_distances
from repro.resilience import attack as _attack
from repro.resilience import sweep as _sweep
from repro.resilience.attack import AttackStrategy, victim_order
from repro.resilience.sweep import (
    InflationTrajectory,
    _sample_sources,
    _validate_sweep_args,
)
from repro.stats.rng import SeedLike, make_rng


def _python_inflation_sweep(
    graph: Graph,
    strategy: AttackStrategy,
    max_fraction: float,
    steps: int,
    samples: int,
    seed: SeedLike,
    betweenness_pivots: int,
) -> InflationTrajectory:
    """Reference implementation: graph copy, per-batch removal, dict BFS."""
    rng = make_rng(seed)
    work = graph.copy()
    n = graph.num_nodes
    total = int(max_fraction * n)
    adaptive = strategy is AttackStrategy.DEGREE
    order: List = []
    if not adaptive:
        order = victim_order(work, strategy, rng, betweenness_pivots)

    def measure(step: int) -> float:
        active = list(work.nodes())
        distance_sum = 0
        pairs = 0
        for source in _sample_sources(active, samples, seed, step):
            distances = bfs_distances(work, source)
            distance_sum += sum(distances.values())
            pairs += len(distances) - 1
        return distance_sum / pairs if pairs else float("nan")

    fractions = [0.0]
    means = [measure(0)]
    batch = max(total // steps, 1)
    removed = 0
    cursor = 0
    step = 0
    while removed < total:
        for _ in range(min(batch, total - removed)):
            if adaptive:
                victim = max(work.nodes(), key=work.degree)
            else:
                victim = order[cursor]
                cursor += 1
            work.remove_node(victim)
            removed += 1
        step += 1
        fractions.append(removed / n)
        means.append(measure(step))
    return InflationTrajectory(
        strategy=strategy,
        fractions_removed=tuple(fractions),
        mean_distances=tuple(means),
        samples=samples,
    )


def path_inflation_sweep(
    graph: Graph,
    strategy: AttackStrategy = AttackStrategy.RANDOM,
    max_fraction: float = 0.5,
    steps: int = 5,
    samples: int = 32,
    seed: SeedLike = 0,
    betweenness_pivots: int = 100,
) -> InflationTrajectory:
    """Production's validation, then the reference sweep."""
    _validate_sweep_args(graph, max_fraction, steps)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return _python_inflation_sweep(
        graph, strategy, max_fraction, steps, samples, seed, betweenness_pivots,
    )


def shortcut_fraction(graph: Graph) -> float:
    """Fraction of links closing at least one triangle, by intersecting
    the endpoints' neighbor sets edge by edge."""
    m = graph.num_edges
    if m == 0:
        return float("nan")
    shortcuts = 0
    for u, v in graph.edges():
        u_neighbors = graph.neighbor_weights(u)
        v_neighbors = graph.neighbor_weights(v)
        if len(v_neighbors) < len(u_neighbors):
            u_neighbors, v_neighbors = v_neighbors, u_neighbors
        if any(w in v_neighbors for w in u_neighbors):
            shortcuts += 1
    return shortcuts / m


def link_redundancy(graph: Graph) -> float:
    """Fraction of links whose endpoints stay connected without them:
    one BFS per link on a copy with that link removed."""
    m = graph.num_edges
    if m == 0:
        return float("nan")
    redundant = 0
    for u, v in list(graph.edges()):
        work = graph.copy()
        work.remove_edge(u, v)
        if v in bfs_distances(work, u):
            redundant += 1
    return redundant / m


#: production kernel → its oracle.
ORACLES = {
    _sweep.percolation_sweep: _attack.removal_sweep,
    _sweep.path_inflation_sweep: path_inflation_sweep,
    _sweep.shortcut_fraction: shortcut_fraction,
    _sweep.link_redundancy: link_redundancy,
}
