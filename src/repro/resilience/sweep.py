"""Vectorized robustness & redundancy battery (Zhou–Mondragón T5 kernels).

Percolation sweeps are the behavioral half of the comparison battery: a
model earns its living not by matching scalar metrics but by *surviving*
random failure and targeted attack the way the measured AS map does.  The
reference sweep kept in ``tests/resilience/oracles.py`` recomputes
connected components from scratch after every removal batch, which is
O(steps × (N + E)) per sweep — too slow to run across the full 12-model
registry at battery scale.  :func:`percolation_sweep` and the other
kernels here run on the graph's cached CSR view:

* :func:`percolation_sweep` — node-removal percolation over the cached
  :class:`~repro.graph.csr.CSRView`.  The victim order is computed once
  (arrays for the adaptive-degree attack, the shared
  :func:`~repro.resilience.attack.victim_order` for the precomputed
  strategies), then the giant-component trajectory is recovered *in
  reverse*: start from the fully-attacked graph, seed an incremental
  union-find from one C-speed ``scipy.sparse.csgraph`` components pass,
  and re-add victims last-to-first, recording the running maximum
  component size at each measurement checkpoint.  Total cost is one
  components pass plus O(E α(N)) unions — no per-checkpoint recomputation.
  Trajectories are **bit-identical** to the reference sweep for every
  strategy, seed, and graph shape (the equivalence suite enforces this).
* :func:`path_inflation_sweep` — sampled path-length inflation along the
  same removal schedule, via the bit-parallel BFS kernel
  (:meth:`~repro.graph.csr.CSRView.bfs_levels`) restricted to the
  surviving nodes with its ``active`` mask.  Each level's popcount is the
  number of (source, target) pairs at that distance; the sums of d·count
  and count are integers, so the sampled means are exact ratios.
* :func:`link_redundancy` / :func:`shortcut_fraction` — the Zhou–Mondragón
  redundancy fingerprints: the fraction of links whose loss does not
  disconnect their endpoints (non-bridge links, i.e. links on a cycle) and
  the fraction of links with a two-hop bypass (links closing at least one
  triangle, the radius-2 "shortcut" operationalization).
* :func:`robustness_summary` — the scalar bundle the battery runner's
  ``robustness`` metric group computes per (model, replicate) cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from ..graph.csr import popcount
from ..graph.cuts import bridges
from ..graph.graph import Graph
from ..obs.tracer import get_tracer
from ..stats.rng import SeedLike, derive_seed, make_rng
from .attack import (
    AttackStrategy,
    RemovalTrajectory,
    critical_fraction,
    victim_order,
)

__all__ = [
    "InflationTrajectory",
    "percolation_sweep",
    "path_inflation_sweep",
    "link_redundancy",
    "shortcut_fraction",
    "robustness_summary",
    "ROBUSTNESS_MAX_FRACTION",
    "ROBUSTNESS_STEPS",
    "ROBUSTNESS_INFLATION_FRACTION",
    "ROBUSTNESS_INFLATION_STEPS",
    "ROBUSTNESS_PATH_SAMPLES",
]

Node = Hashable

#: Sweep shape used by the battery's ``robustness`` metric group.  Fixed
#: module constants (not per-call knobs) so every cached cell across every
#: experiment measures the same thing; changing any of them is a metric
#: change and requires a :data:`repro.core.metrics.METRICS_VERSION` bump.
ROBUSTNESS_MAX_FRACTION = 0.5
ROBUSTNESS_STEPS = 20
ROBUSTNESS_INFLATION_FRACTION = 0.3
ROBUSTNESS_INFLATION_STEPS = 3
ROBUSTNESS_PATH_SAMPLES = 32


@dataclass(frozen=True)
class InflationTrajectory:
    """Sampled mean path length as nodes are removed.

    ``fractions_removed[i]`` / ``mean_distances[i]`` describe the state
    after the i-th measurement, starting at (0.0, intact mean).  Means are
    over all reachable (source, target) pairs from the sampled sources;
    NaN when no pair is reachable (fully fragmented).
    """

    strategy: AttackStrategy
    fractions_removed: Tuple[float, ...]
    mean_distances: Tuple[float, ...]
    samples: int

    @property
    def inflation(self) -> Tuple[float, ...]:
        """Each measurement's mean divided by the intact mean (index 0)."""
        base = self.mean_distances[0]
        return tuple(d / base for d in self.mean_distances)

    def as_points(self) -> List[Tuple[float, float]]:
        """(fraction removed, inflation) pairs for plotting."""
        return list(zip(self.fractions_removed, self.inflation))


def _validate_sweep_args(graph: Graph, max_fraction: float, steps: int) -> None:
    """Shared argument validation, mirroring the reference's messages."""
    if not 0 < max_fraction <= 1:
        raise ValueError("max_fraction must be in (0, 1]")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if graph.num_nodes == 0:
        raise ValueError("cannot attack an empty graph")


def _checkpoints(total: int, steps: int) -> List[int]:
    """Cumulative removal counts at which the reference sweep measures."""
    batch = max(total // steps, 1)
    out: List[int] = []
    removed = 0
    while removed < total:
        removed += min(batch, total - removed)
        out.append(removed)
    return out


class _UnionFind:
    """Incremental union-find over array positions, tracking the giant.

    Seeded from a C-speed components pass on the surviving subgraph, then
    grown one re-activated victim at a time — the reverse-percolation
    structure behind :func:`percolation_sweep`.
    """

    __slots__ = ("parent", "size", "giant")

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)
        self.giant = 0

    def seed_components(self, labels: np.ndarray, active: np.ndarray) -> None:
        """Adopt a component labelling: every position points at its
        label's first occurrence; sizes count *active* members only
        (inactive positions are isolated singletons by construction)."""
        _, first_index = np.unique(labels, return_index=True)
        self.parent = first_index[labels].astype(np.int64)
        counts = np.bincount(labels[active], minlength=len(first_index))
        self.size = np.ones(len(labels), dtype=np.int64)
        self.size[first_index] = np.maximum(counts, 1)
        self.giant = int(counts.max()) if counts.size else 0

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = int(parent[x])
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]
        if self.size[rx] > self.giant:
            self.giant = int(self.size[rx])


def _adaptive_degree_victims(view, total: int) -> np.ndarray:
    """The adaptive highest-degree removal order, as array positions.

    Maintains a decremental degree array instead of re-scanning a mutating
    graph: each removal is one ``argmax`` (ties fall to the lowest
    position, matching the reference's first-maximal iteration-order
    tie-break) plus a neighbor decrement.  Removed positions get a
    sentinel below any reachable degree so they can never be re-picked.
    """
    n = view.num_nodes
    degrees = view.degrees.astype(np.int64)
    victims = np.empty(total, dtype=np.int64)
    sentinel = -(n + 1)
    for k in range(total):
        position = int(np.argmax(degrees))
        victims[k] = position
        degrees[view.neighbor_slice(position)] -= 1
        degrees[position] = sentinel
    return victims


def _victim_positions(
    graph: Graph,
    view,
    strategy: AttackStrategy,
    total: int,
    rng,
    betweenness_pivots: int,
) -> np.ndarray:
    """The first *total* victims as CSR positions, any strategy."""
    if strategy is AttackStrategy.DEGREE:
        return _adaptive_degree_victims(view, total)
    order = victim_order(graph, strategy, rng, betweenness_pivots)
    return np.fromiter(
        (view.index[node] for node in order[:total]), dtype=np.int64, count=total
    )


def _reverse_giant_sizes(
    view, victims: np.ndarray, checkpoints: Sequence[int]
) -> Dict[int, int]:
    """Giant-component size after removing the first k victims, for every
    k in *checkpoints* plus k=0, via reverse incremental union-find."""
    n = view.num_nodes
    total = len(victims)
    active = np.ones(n, dtype=bool)
    active[victims] = False
    uf = _UnionFind(n)
    if active.any():
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        u, v, _ = view.edge_arrays()
        keep = active[u] & active[v]
        adjacency = csr_matrix(
            (np.ones(int(keep.sum()), dtype=np.int8), (u[keep], v[keep])),
            shape=(n, n),
        )
        _, labels = connected_components(adjacency, directed=False)
        uf.seed_components(labels, active)
    wanted = set(checkpoints)
    sizes: Dict[int, int] = {}
    if total in wanted:
        sizes[total] = uf.giant
    for k in range(total - 1, -1, -1):
        position = int(victims[k])
        active[position] = True
        if uf.giant < 1:
            uf.giant = 1
        for neighbor in view.neighbor_slice(position):
            if active[neighbor]:
                uf.union(position, int(neighbor))
        if k in wanted:
            sizes[k] = uf.giant
    sizes[0] = uf.giant
    return sizes


def percolation_sweep(
    graph: Graph,
    strategy: AttackStrategy = AttackStrategy.RANDOM,
    max_fraction: float = 0.5,
    steps: int = 20,
    seed: SeedLike = 0,
    betweenness_pivots: int = 100,
) -> RemovalTrajectory:
    """Node-removal percolation sweep by reverse union-find over the
    graph's cached CSR view.

    Remove up to *max_fraction* of the nodes, measuring at *steps* points.
    ``DEGREE`` takes the top-degree survivor after every removal (the
    strongest attack); the other strategies follow :func:`victim_order`.
    Ties always break by node iteration order, so the sweep is a pure
    function of (graph, strategy, seed); the input graph is never
    mutated.  Returns exactly the :class:`RemovalTrajectory` of the
    reference sweep in ``tests/resilience/oracles.py`` for every strategy
    and seed — the same victims, measured at the same checkpoints —
    without recomputing components after each removal batch.
    """
    _validate_sweep_args(graph, max_fraction, steps)
    with get_tracer().span(
        "resilience.sweep", strategy=strategy.value, n=graph.num_nodes
    ):
        rng = make_rng(seed)
        view = graph.csr()
        n = view.num_nodes
        total = int(max_fraction * n)
        victims = _victim_positions(
            graph, view, strategy, total, rng, betweenness_pivots
        )
        checkpoints = _checkpoints(total, steps)
        sizes = _reverse_giant_sizes(view, victims, checkpoints)
        fractions = [0.0] + [k / n for k in checkpoints]
        giants = [sizes[0] / n] + [sizes[k] / n for k in checkpoints]
        return RemovalTrajectory(
            strategy=strategy,
            fractions_removed=tuple(fractions),
            giant_fractions=tuple(giants),
        )


# ------------------------------------------------------------ path inflation


def _sample_sources(active_nodes: List[Node], samples: int, seed, step: int):
    """The measurement's BFS sources: a seeded draw from the surviving
    nodes in graph iteration order.  Pure function of (seed, step, active
    set)."""
    rng = make_rng(derive_seed("inflation-sources", seed, step))
    count = min(samples, len(active_nodes))
    return rng.sample(active_nodes, count)


def path_inflation_sweep(
    graph: Graph,
    strategy: AttackStrategy = AttackStrategy.RANDOM,
    max_fraction: float = 0.5,
    steps: int = 5,
    samples: int = 32,
    seed: SeedLike = 0,
    betweenness_pivots: int = 100,
) -> InflationTrajectory:
    """Sampled path-length inflation along a removal schedule.

    At the intact graph and after every removal batch, BFS runs from up to
    *samples* seeded sources drawn from the surviving nodes, and the mean
    distance over all reachable (source, target) pairs is recorded.  The
    victim order is computed once; all sources of a measurement then run
    as one bit-parallel masked BFS
    (:meth:`~repro.graph.csr.CSRView.bfs_levels` with its ``active``
    mask) on the intact graph's view, accumulating integer distances, so
    no graph copy is ever mutated.
    """
    _validate_sweep_args(graph, max_fraction, steps)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    with get_tracer().span(
        "resilience.inflation", strategy=strategy.value, n=graph.num_nodes
    ):
        rng = make_rng(seed)
        view = graph.csr()
        n = view.num_nodes
        total = int(max_fraction * n)
        victims = _victim_positions(
            graph, view, strategy, total, rng, betweenness_pivots
        )
        active = np.ones(n, dtype=bool)

        def measure(step: int) -> float:
            active_nodes = [view.nodes[i] for i in np.flatnonzero(active)]
            sources = _sample_sources(active_nodes, samples, seed, step)
            if not sources:
                return float("nan")
            positions = np.fromiter(
                (view.index[node] for node in sources),
                dtype=np.int64, count=len(sources),
            )
            pairs = distance_sum = 0
            levels = view.bfs_levels(positions, active=active)
            for depth, fresh in enumerate(levels, start=1):
                count = popcount(fresh)
                pairs += count
                distance_sum += depth * count
            if pairs == 0:
                return float("nan")
            return distance_sum / pairs

        checkpoints = _checkpoints(total, steps)
        fractions = [0.0]
        means = [measure(0)]
        removed = 0
        for step, k in enumerate(checkpoints, start=1):
            active[victims[removed:k]] = False
            removed = k
            fractions.append(k / n)
            means.append(measure(step))
        return InflationTrajectory(
            strategy=strategy,
            fractions_removed=tuple(fractions),
            mean_distances=tuple(means),
            samples=samples,
        )


# ------------------------------------------------------- redundancy metrics


def link_redundancy(graph: Graph) -> float:
    """Fraction of links that are *redundant*: their loss leaves their
    endpoints connected (the link lies on a cycle, i.e. is not a bridge).

    The Zhou–Mondragón redundancy fingerprint: measured AS maps are
    bridge-heavy at the stub edge and cycle-rich in the core, and models
    that match the degree sequence can still miss this badly.  The bridge
    count comes from the iterative Tarjan DFS
    (:func:`repro.graph.cuts.bridges`, O(N+E)).
    """
    m = graph.num_edges
    if m == 0:
        return float("nan")
    return (m - len(bridges(graph))) / m


def shortcut_fraction(graph: Graph) -> float:
    """Fraction of links with a two-hop bypass (the link closes at least
    one triangle) — the radius-2 "shortcut" count of the Zhou–Mondragón
    redundancy analysis: traffic survives the link's loss with one extra
    hop.  Shortcut edges are those with a positive entry of A·A, counted
    exactly with one sparse matmul.
    """
    m = graph.num_edges
    if m == 0:
        return float("nan")
    adjacency = graph.csr().unweighted_sparse()
    two_paths = adjacency @ adjacency
    # Entries of A·A at edge positions count common neighbors; each
    # undirected shortcut edge appears twice (once per direction).
    bypassed = adjacency.multiply(two_paths)
    shortcuts = int((bypassed.data > 0).sum()) // 2
    return shortcuts / m


def robustness_summary(graph: Graph, seed: SeedLike = 0) -> Dict[str, float]:
    """The T5 scalar bundle for one topology: percolation survival and
    collapse points under random failure and adaptive-degree attack,
    sampled path inflation under random failure, and the redundancy
    fingerprints.  All sweeps use the fixed ``ROBUSTNESS_*`` shape so
    values are comparable (and cacheable) across every model and run.
    """
    random_run = percolation_sweep(
        graph, AttackStrategy.RANDOM, max_fraction=ROBUSTNESS_MAX_FRACTION,
        steps=ROBUSTNESS_STEPS, seed=seed,
    )
    attack_run = percolation_sweep(
        graph, AttackStrategy.DEGREE, max_fraction=ROBUSTNESS_MAX_FRACTION,
        steps=ROBUSTNESS_STEPS, seed=seed,
    )
    inflation = path_inflation_sweep(
        graph, AttackStrategy.RANDOM,
        max_fraction=ROBUSTNESS_INFLATION_FRACTION,
        steps=ROBUSTNESS_INFLATION_STEPS, samples=ROBUSTNESS_PATH_SAMPLES,
        seed=seed,
    )
    random_critical = critical_fraction(random_run)
    attack_critical = critical_fraction(attack_run)
    return {
        "random_survival": random_run.giant_fractions[-1],
        "attack_survival": attack_run.giant_fractions[-1],
        "random_critical": (
            random_critical if random_critical is not None else float("nan")
        ),
        "attack_critical": (
            attack_critical if attack_critical is not None else float("nan")
        ),
        "path_inflation": inflation.inflation[-1],
        "link_redundancy": link_redundancy(graph),
        "shortcut_fraction": shortcut_fraction(graph),
    }
