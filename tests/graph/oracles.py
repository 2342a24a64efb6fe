"""Reference metric kernels kept as test oracles.

Every metric kernel in :mod:`repro.graph` runs on the CSR view.  The loops
below are the dict-walking versions those kernels replaced, each with the
production kernel's name and arguments, so a suite compares the two call
for call.  :func:`reference` evaluates any public function with every
kernel it reaches swapped for its oracle — ``reference(average_clustering,
g)`` averages the oracle's local clustering, and
``reference(compute_metric_groups, g, groups)`` runs the whole battery on
the oracles: the giant as a subgraph of the oracle components, every
group from the oracle kernels on that subgraph.
"""

import contextlib
import math
import sys
from collections import deque
from typing import Dict, Hashable, List, Optional, Set

import pytest

# compute_metric_groups imports the robustness kernels lazily.  Import them
# here, so no module first binds a kernel name while the oracles are in
# place (it would keep the oracle after the swap is undone).
import repro.resilience  # noqa: F401
from repro.core import metrics as _metrics
from repro.graph import betweenness as _betweenness
from repro.graph import clustering as _clustering
from repro.graph import cores as _cores
from repro.graph import correlations as _correlations
from repro.graph import richclub as _richclub
from repro.graph import shortest_paths as _shortest_paths
from repro.graph import traversal as _traversal
from repro.graph.graph import Graph
from repro.graph.shortest_paths import PathLengthStats
from repro.graph.traversal import bfs_distances
from repro.stats.powerlaw import fit_powerlaw_auto_xmin
from repro.stats.rng import SeedLike, make_rng

Node = Hashable


# ------------------------------------------------------------- traversal


def connected_components(graph: Graph) -> List[Set[Node]]:
    """Connected components, largest first."""
    seen: Set[Node] = set()
    components: List[Set[Node]] = []
    for start in graph.nodes():
        if start in seen:
            continue
        component: Set[Node] = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v not in component:
                    component.add(v)
                    queue.append(v)
        seen |= component
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected (empty graphs count as connected)."""
    if graph.num_nodes == 0:
        return True
    first = next(iter(graph.nodes()))
    return len(bfs_distances(graph, first)) == graph.num_nodes


def giant_component(graph: Graph) -> Graph:
    """Subgraph induced on the largest connected component (the first
    listed of equal-size largest ones)."""
    components = connected_components(graph)
    if not components:
        return Graph(name=graph.name)
    return graph.subgraph(components[0])


# ------------------------------------------------------------ clustering


def triangles_per_node(graph: Graph) -> Dict[Node, int]:
    """Number of triangles through each node.

    Neighbor-intersection counting: for each node, intersect the adjacency
    sets of neighbor pairs via hash lookups, iterating the smaller side.
    O(sum_e min(d_u, d_v)) overall.
    """
    counts: Dict[Node, int] = {node: 0 for node in graph.nodes()}
    adj = {node: graph.neighbor_weights(node) for node in graph.nodes()}
    for u in graph.nodes():
        nbrs_u = adj[u]
        for v in nbrs_u:
            if not _ordered_before(u, v):
                continue
            # Iterate the smaller adjacency to bound the intersection cost.
            small, large = (nbrs_u, adj[v]) if len(nbrs_u) <= len(adj[v]) else (adj[v], nbrs_u)
            for w in small:
                if w != u and w != v and w in large and _ordered_before(v, w):
                    counts[u] += 1
                    counts[v] += 1
                    counts[w] += 1
    return counts


def _ordered_before(a: Node, b: Node) -> bool:
    """Stable ordering for arbitrary hashable ids (id() fallback for
    non-comparable mixes such as int and str ids in one graph)."""
    try:
        return a < b  # type: ignore[operator]
    except TypeError:
        return id(a) < id(b)


def total_triangles(graph: Graph) -> int:
    """Total number of distinct triangles in the graph."""
    return sum(triangles_per_node(graph).values()) // 3


def local_clustering(graph: Graph) -> Dict[Node, float]:
    """Watts–Strogatz local clustering coefficient per node (0 below
    degree 2)."""
    triangles = triangles_per_node(graph)
    out: Dict[Node, float] = {}
    for node in graph.nodes():
        k = graph.degree(node)
        out[node] = 0.0 if k < 2 else 2.0 * triangles[node] / (k * (k - 1))
    return out


# ----------------------------------------------------------------- cores


def core_numbers(graph: Graph) -> Dict[Node, int]:
    """Coreness of every node via bucket peeling."""
    degrees = dict(graph.degrees())
    if not degrees:
        return {}
    max_degree = max(degrees.values())
    # Bucket nodes by current degree.
    buckets: List[List[Node]] = [[] for _ in range(max_degree + 1)]
    for node, k in degrees.items():
        buckets[k].append(node)
    core: Dict[Node, int] = {}
    current = 0
    remaining = dict(degrees)
    removed = set()
    for k in range(max_degree + 1):
        bucket = buckets[k]
        while bucket:
            node = bucket.pop()
            if node in removed or remaining[node] != k:
                continue  # stale entry: the node moved buckets already
            current = max(current, k)
            core[node] = current
            removed.add(node)
            for nbr in graph.neighbors(node):
                if nbr in removed:
                    continue
                d = remaining[nbr]
                if d > k:
                    remaining[nbr] = d - 1
                    buckets[d - 1].append(nbr)
    return core


# ---------------------------------------------------------- correlations


def average_neighbor_degree(graph: Graph) -> Dict[Node, float]:
    """Mean degree of each node's neighbors (0 for isolated nodes)."""
    out: Dict[Node, float] = {}
    for node in graph.nodes():
        k = graph.degree(node)
        if k == 0:
            out[node] = 0.0
            continue
        out[node] = sum(graph.degree(v) for v in graph.neighbors(node)) / k
    return out


def degree_assortativity(graph: Graph) -> float:
    """Pearson correlation of degrees across edges (Newman's r)."""
    sum_x = sum_x2 = sum_xy = 0.0
    count = 0
    for u, v in graph.edges():
        ku = graph.degree(u)
        kv = graph.degree(v)
        # Both orientations: (ku, kv) and (kv, ku).
        sum_x += ku + kv
        sum_x2 += ku * ku + kv * kv
        sum_xy += 2.0 * ku * kv
        count += 2
    if count == 0:
        return 0.0
    mean_x = sum_x / count
    var_x = sum_x2 / count - mean_x * mean_x
    if var_x <= 0:
        return 0.0
    cov = sum_xy / count - mean_x * mean_x
    return cov / var_x


# ------------------------------------------------------------- rich club


def rich_club_coefficient(graph: Graph) -> Dict[int, float]:
    """φ(k) for every degree k present: density among nodes with degree > k.

    Computed incrementally from high k downward: for each threshold k,
    ``φ(k) = 2 E_{>k} / (N_{>k} (N_{>k} - 1))``.  Thresholds where fewer
    than two nodes qualify are omitted.
    """
    degrees = graph.degrees()
    if not degrees:
        return {}
    # Sort thresholds descending; sweep nodes into the club as k decreases.
    max_k = max(degrees.values())
    nodes_by_degree: Dict[int, List[Node]] = {}
    for node, k in degrees.items():
        nodes_by_degree.setdefault(k, []).append(node)
    club: set = set()
    edges_inside = 0
    phi: Dict[int, float] = {}
    for k in range(max_k - 1, -1, -1):
        # Nodes of degree k+1 enter the club when the threshold drops to k.
        for node in nodes_by_degree.get(k + 1, ()):
            for nbr in graph.neighbors(node):
                if nbr in club:
                    edges_inside += 1
            club.add(node)
        size = len(club)
        if size >= 2:
            phi[k] = 2.0 * edges_inside / (size * (size - 1))
    return dict(sorted(phi.items()))


# ----------------------------------------------------------- betweenness


def _accumulate_from_source(graph: Graph, source: Node, scores: Dict[Node, float]) -> None:
    """One Brandes source iteration: BFS + dependency back-propagation."""
    sigma: Dict[Node, float] = {source: 1.0}
    distance: Dict[Node, int] = {source: 0}
    predecessors: Dict[Node, List[Node]] = {source: []}
    order: List[Node] = []
    queue = deque([source])
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in graph.neighbors(u):
            if v not in distance:
                distance[v] = distance[u] + 1
                sigma[v] = 0.0
                predecessors[v] = []
                queue.append(v)
            if distance[v] == distance[u] + 1:
                sigma[v] += sigma[u]
                predecessors[v].append(u)
    delta: Dict[Node, float] = {u: 0.0 for u in order}
    for u in reversed(order):
        for p in predecessors[u]:
            delta[p] += sigma[p] / sigma[u] * (1.0 + delta[u])
        if u != source:
            scores[u] += delta[u]


def _scored(graph: Graph, sources, scale: float):
    """Run Brandes from *sources* one dict BFS at a time, scaled."""
    scores: Dict[Node, float] = {node: 0.0 for node in graph.nodes()}
    for source in sources:
        _accumulate_from_source(graph, source, scores)
    return {node: score * scale for node, score in scores.items()}


# ---------------------------------------------------------- path lengths


def path_length_distribution(
    graph: Graph,
    max_sources: Optional[int] = None,
    seed: SeedLike = None,
) -> PathLengthStats:
    """Distribution of shortest-path lengths: one dict BFS per source,
    sources sampled exactly as the production kernel samples them."""
    nodes = list(graph.nodes())
    if not nodes:
        return PathLengthStats(counts={}, sources=0, exact=True)
    exact = max_sources is None or max_sources >= len(nodes)
    if exact:
        sources = nodes
    else:
        rng = make_rng(seed)
        sources = rng.sample(nodes, max_sources)
    counts = {}
    for source in sources:
        for distance in bfs_distances(graph, source).values():
            if distance > 0:
                counts[distance] = counts.get(distance, 0) + 1
    return PathLengthStats(counts=counts, sources=len(sources), exact=exact)


def eccentricities(graph: Graph) -> Dict[Node, int]:
    """Eccentricity of every node (max distance to any reachable node)."""
    out: Dict[Node, int] = {}
    for node in graph.nodes():
        distances = bfs_distances(graph, node)
        out[node] = max(distances.values()) if len(distances) > 1 else 0
    return out


def diameter(graph: Graph) -> int:
    """Exact diameter; :class:`ValueError` on a disconnected graph."""
    nodes = list(graph.nodes())
    if not nodes:
        return 0
    best = 0
    n = len(nodes)
    for node in nodes:
        distances = bfs_distances(graph, node)
        if len(distances) != n:
            raise ValueError("diameter is undefined on a disconnected graph")
        best = max(best, max(distances.values()))
    return best


# --------------------------------------------------------------- battery


def _size_group(gc: Graph, original_n: int, **_) -> Dict[str, float]:
    n = gc.num_nodes
    return {
        "num_nodes": n,
        "num_edges": gc.num_edges,
        "average_degree": gc.average_degree,
        "max_degree": gc.max_degree,
        "max_degree_fraction": gc.max_degree / n,
        "giant_fraction": n / original_n,
    }


def _tail_group(gc: Graph, min_tail: int, **_) -> Dict[str, float]:
    try:
        fit = fit_powerlaw_auto_xmin(list(gc.degrees().values()), min_tail=min_tail)
    except ValueError:
        return {"degree_exponent": math.nan, "degree_exponent_sigma": math.nan}
    return {"degree_exponent": fit.gamma, "degree_exponent_sigma": fit.sigma}


def _clustering_group(gc: Graph, **_) -> Dict[str, float]:
    local = list(local_clustering(gc).values())
    triangles = total_triangles(gc)
    triples = sum(k * (k - 1) // 2 for k in gc.degrees().values())
    return {
        "average_clustering": sum(local) / len(local),
        "transitivity": 3.0 * triangles / triples if triples else 0.0,
        "triangles": triangles,
    }


def _paths_group(
    gc: Graph, path_sample_threshold: int, path_samples: int, seed: SeedLike, **_
) -> Dict[str, float]:
    max_sources = None if gc.num_nodes <= path_sample_threshold else path_samples
    paths = path_length_distribution(gc, max_sources=max_sources, seed=seed)
    return {"average_path_length": paths.mean}


_GROUPS = {
    "size": _size_group,
    "tail": _tail_group,
    "clustering": _clustering_group,
    "mixing": lambda gc, **_: {"assortativity": degree_assortativity(gc)},
    "core": lambda gc, **_: {"degeneracy": max(core_numbers(gc).values())},
    "paths": _paths_group,
}


def compute_metric_groups(
    graph: Graph,
    groups,
    path_sample_threshold: int = 1500,
    path_samples: int = 400,
    min_tail: int = 50,
    seed: SeedLike = 0,
) -> Dict[str, Dict[str, float]]:
    """The scalar battery on dict-walking kernels: the giant is a subgraph
    of the oracle components, and each group walks that subgraph."""
    gc = giant_component(graph)
    if gc.num_nodes == 0:
        raise ValueError("cannot summarize an empty graph")
    return {
        group: _GROUPS[group](
            gc,
            original_n=graph.num_nodes,
            path_sample_threshold=path_sample_threshold,
            path_samples=path_samples,
            min_tail=min_tail,
            seed=seed,
        )
        for group in groups
    }


# ------------------------------------------------------------ composition

#: production kernel → its oracle.
ORACLES = {
    _traversal.connected_components: connected_components,
    _traversal.is_connected: is_connected,
    _traversal.giant_component: giant_component,
    _clustering.triangles_per_node: triangles_per_node,
    _clustering.total_triangles: total_triangles,
    _clustering.local_clustering: local_clustering,
    _cores.core_numbers: core_numbers,
    _correlations.average_neighbor_degree: average_neighbor_degree,
    _correlations.degree_assortativity: degree_assortativity,
    _richclub.rich_club_coefficient: rich_club_coefficient,
    _betweenness._scored: _scored,
    _shortest_paths.path_length_distribution: path_length_distribution,
    _shortest_paths.eccentricities: eccentricities,
    _shortest_paths.diameter: diameter,
    _metrics.compute_metric_groups: compute_metric_groups,
}


@contextlib.contextmanager
def oracles_in_place(table=None):
    """Within the block, every ``repro`` module attribute bound to a kernel
    in *table* (default :data:`ORACLES`) is bound to its oracle instead —
    the kernel's home module and every module that imported it by name."""
    by_id = {id(kernel): oracle for kernel, oracle in (table or ORACLES).items()}
    with pytest.MonkeyPatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                oracle = by_id.get(id(value))
                if oracle is not None:
                    mp.setattr(module, attr, oracle)
        yield


def reference(fn, *args, table=None, **kwargs):
    """*fn*'s value with every kernel in *table* (default :data:`ORACLES`)
    that it reaches replaced by its oracle — *fn* itself too, when it is
    one of those kernels."""
    table = ORACLES if table is None else table
    with oracles_in_place(table):
        return table.get(fn, fn)(*args, **kwargs)
