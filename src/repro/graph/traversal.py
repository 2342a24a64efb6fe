"""Breadth-first traversal and connectivity.

Foundation for the distance-based metrics: single-source BFS levels,
connected components, and giant-component extraction (every validation
metric in the literature is computed on the giant component of the map).
:func:`giant_mask` finds the giant as a boolean mask over a
:class:`~repro.graph.csr.CSRView`, which is how the metric battery and
the store measure it without building a second graph.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Set

import numpy as np

from .csr import CSRView
from .graph import Graph

__all__ = [
    "bfs_distances",
    "bfs_tree",
    "connected_components",
    "component_labels",
    "giant_mask",
    "is_connected",
    "giant_component",
]

Node = Hashable


def bfs_distances(graph: Graph, source: Node, cutoff: Optional[int] = None) -> Dict[Node, int]:
    """Hop distances from *source* to every reachable node.

    *cutoff* bounds the search depth (distances beyond it are omitted),
    which keeps neighborhood queries cheap on large graphs.
    """
    if not graph.has_node(source):
        raise KeyError(f"source {source!r} not in graph")
    distances: Dict[Node, int] = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        d = distances[u]
        if cutoff is not None and d >= cutoff:
            continue
        for v in graph.neighbors(u):
            if v not in distances:
                distances[v] = d + 1
                queue.append(v)
    return distances


def bfs_tree(graph: Graph, source: Node) -> Dict[Node, Node]:
    """BFS predecessor map: child → parent, rooted at *source*.

    The source itself is absent from the mapping.
    """
    if not graph.has_node(source):
        raise KeyError(f"source {source!r} not in graph")
    parent: Dict[Node, Node] = {}
    visited: Set[Node] = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in visited:
                visited.add(v)
                parent[v] = u
                queue.append(v)
    return parent


def connected_components(graph: Graph) -> List[Set[Node]]:
    """Connected components, largest first.

    Frontier-array BFS sweeps over the CSR view.  Seeds are visited in
    node-iteration order, so components of equal size keep their discovery
    order under the stable largest-first sort.
    """
    view = graph.csr()
    n = view.num_nodes
    labels = np.full(n, -1, dtype=np.int64)
    components: List[Set[Node]] = []
    nodes = view.nodes
    for start in range(n):
        if labels[start] >= 0:
            continue
        label = len(components)
        labels[start] = label
        frontier = np.array([start], dtype=np.int64)
        member_ids: Set[Node] = {nodes[start]}
        while frontier.size:
            block = view.neighbor_block(frontier)
            block = block[labels[block] < 0]
            if block.size == 0:
                break
            labels[block] = label
            frontier = np.unique(block)
            member_ids.update(nodes[i] for i in frontier.tolist())
        components.append(member_ids)
    components.sort(key=len, reverse=True)
    return components


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected (empty graphs count as connected)."""
    if graph.num_nodes == 0:
        return True
    view = graph.csr()
    return int((view.bfs_distances(0) >= 0).sum()) == view.num_nodes


def component_labels(view: CSRView) -> np.ndarray:
    """Connected-component label per array position of *view* (int32).

    One ``scipy.sparse.csgraph`` pass over a 0/1 adjacency whose data
    array is ``int8``; the view's ``indices``/``indptr`` (memory-mapped
    ones included) are shared, not copied.  Components are numbered in
    order of their lowest position.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components as label_components

    n = view.num_nodes
    if n == 0:
        return np.empty(0, dtype=np.int32)
    adjacency = csr_matrix(
        (np.ones(len(view.indices), dtype=np.int8), view.indices, view.indptr),
        shape=(n, n),
    )
    _, labels = label_components(adjacency, directed=False)
    return labels


def giant_mask(view: CSRView) -> np.ndarray:
    """Boolean mask over *view*'s positions selecting its largest
    connected component (empty for an empty view).

    Of two largest components of equal size, the one holding the lower
    position wins: labels follow lowest positions and ``argmax`` takes the
    first maximum, the order :func:`connected_components` lists them in.
    """
    labels = component_labels(view)
    if labels.size == 0:
        return np.zeros(0, dtype=bool)
    return labels == np.bincount(labels).argmax()


def giant_component(graph: Graph) -> Graph:
    """Subgraph induced on the largest connected component (see
    :func:`giant_mask` for ties)."""
    view = graph.csr()
    nodes = view.nodes
    return graph.subgraph(nodes[i] for i in np.flatnonzero(giant_mask(view)).tolist())
