"""Compressed-sparse-row view of the graph engine.

:class:`CSRView` is an immutable array snapshot of a :class:`~repro.graph.
graph.Graph`: contiguous ``indptr``/``indices``/``weights`` numpy arrays
plus the node↔index maps that tie array positions back to node ids.  The
metric kernels (BFS path lengths, Brandes betweenness, triangle counting,
k-core peeling, rich-club and correlation sweeps, the percolation sweeps)
run on this view; the dict-walking loops they replaced are kept in the
test suite as oracles.

The view contract:

* **one-pass build** — :meth:`CSRView.from_graph` walks the adjacency
  exactly once; per-row neighbor indices are sorted so intersection-style
  kernels can rely on ordered adjacency;
* **immutable** — every array is marked read-only; a view never changes
  after construction;
* **never stale** — :meth:`Graph.csr` caches the view against a
  monotonically bumped mutation counter, so any ``add_edge`` /
  ``remove_edge`` / ``remove_node`` / ``set_edge_weight`` after the build
  makes the next ``csr()`` call rebuild.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CSRView", "resolve_backend"]

Node = Hashable


def resolve_backend(backend: str = "auto", size: int = 0) -> str:
    """Validate a former kernel-backend name and return ``"csr"``.

    Kept only for perfbench: its ``ref`` and ``battery`` tasks label their
    environment with it, and :func:`~repro.core.metrics.
    compute_metric_groups` validates with it the ``backend`` keyword that
    perfbench's world-store check still passes.  It goes once a benchmark
    change drops those calls.  Names other than ``auto``, ``python`` and
    ``csr`` raise :class:`ValueError`; *size* is ignored.
    """
    choices = ("auto", "python", "csr")
    if backend not in choices:
        raise ValueError(
            f"unknown backend {backend!r}; choose one of: {', '.join(choices)}"
        )
    return "csr"


class CSRView:
    """Immutable CSR snapshot of an undirected weighted graph.

    ``indices[indptr[i]:indptr[i+1]]`` are the (sorted) neighbor indices of
    the node at position ``i``; ``weights`` aligns with ``indices``.  Each
    undirected edge appears twice (once per endpoint), so
    ``len(indices) == 2 * num_edges``.  ``nodes[i]`` recovers the node id
    at position ``i`` and ``index[node]`` the position of a node id;
    positions follow the graph's node iteration order, so isolated nodes
    are present (as empty rows).

    ``nodes`` may be any indexable sequence — a tuple for in-memory
    builds, a ``range`` for stores whose ids are the positions themselves
    (so a million-node view does not materialize a million id objects).
    The ``index`` map is built lazily on first access for the same reason:
    array-only kernels on a memory-mapped snapshot never pay for it.
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "nodes",
        "_index",
        "degrees",
        "_sparse",
        "_bfs_sparse",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        nodes: Sequence[Node],
    ):
        for array in (indptr, indices, weights):
            if array.flags.writeable:
                array.setflags(write=False)
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.nodes = nodes
        self._index: Optional[Dict[Node, int]] = None
        degrees = np.diff(indptr)
        degrees.setflags(write=False)
        self.degrees = degrees
        self._sparse = None
        self._bfs_sparse = None

    @property
    def index(self) -> Dict[Node, int]:
        """node id → array position (built lazily, then cached)."""
        if self._index is None:
            self._index = {node: i for i, node in enumerate(self.nodes)}
        return self._index

    @classmethod
    def from_graph(cls, graph) -> "CSRView":
        """Build a view from *graph* in one adjacency pass."""
        nodes = tuple(graph.nodes())
        n = len(nodes)
        index = {node: i for i, node in enumerate(nodes)}
        degrees = np.fromiter(
            (graph.degree(node) for node in nodes), dtype=np.int64, count=n
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        total = int(indptr[-1])
        indices = np.empty(total, dtype=np.int64)
        weights = np.empty(total, dtype=np.float64)
        for i, node in enumerate(nodes):
            nbrs = graph.neighbor_weights(node)
            if not nbrs:
                continue
            start, stop = int(indptr[i]), int(indptr[i + 1])
            row = np.fromiter(
                (index[v] for v in nbrs), dtype=np.int64, count=len(nbrs)
            )
            row_weights = np.fromiter(
                nbrs.values(), dtype=np.float64, count=len(nbrs)
            )
            order = np.argsort(row, kind="stable")
            indices[start:stop] = row[order]
            weights[start:stop] = row_weights[order]
        return cls(indptr, indices, weights, nodes)

    @property
    def num_nodes(self) -> int:
        """Number of nodes (array positions), isolated nodes included."""
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """Number of distinct undirected edges."""
        return len(self.indices) // 2

    def neighbor_slice(self, i: int) -> np.ndarray:
        """Sorted neighbor indices of the node at position *i*."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    # -------------------------------------------------------------- kernels

    def neighbor_block(self, frontier: np.ndarray) -> np.ndarray:
        """All neighbor indices of the *frontier* positions, concatenated
        (duplicates preserved) — the gather primitive behind the frontier
        BFS and peeling kernels."""
        block, _ = self.neighbor_block_with_sources(frontier)
        return block

    def neighbor_block_with_sources(
        self, frontier: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(neighbors, sources): concatenated neighbor indices of the
        *frontier* positions plus, aligned, the frontier position each
        neighbor was reached from (what Brandes accumulation needs)."""
        starts = self.indptr[frontier]
        counts = self.indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        cum = np.cumsum(counts)
        # Per-element offset within its own row: 0..count-1 for each source.
        offsets = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
        block = self.indices[np.repeat(starts, counts) + offsets]
        sources = np.repeat(frontier, counts)
        return block, sources

    def bfs_distances(self, source: int) -> np.ndarray:
        """Hop distances from position *source* (-1 for unreachable)."""
        distances = np.full(self.num_nodes, -1, dtype=np.int64)
        distances[source] = 0
        frontier = np.array([source], dtype=np.int64)
        depth = 0
        while frontier.size:
            block = self.neighbor_block(frontier)
            block = block[distances[block] < 0]
            if block.size == 0:
                break
            depth += 1
            distances[block] = depth
            frontier = np.unique(block)
        return distances

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, w) position arrays with each undirected edge once (u < v)."""
        rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        mask = rows < self.indices
        return rows[mask], self.indices[mask], self.weights[mask]

    def unweighted_sparse(self):
        """The 0/1 adjacency as a ``scipy.sparse.csr_matrix`` with float64
        data (cached — the view is immutable, so this is always valid).

        Shares ``indptr``/``indices`` with the view (no copy); only the
        data array is fresh.  float64 keeps matmul-based kernels (triangle
        intersection, Brandes sigma propagation) exact: every accumulated
        value is an integer far below 2**53.
        """
        if self._sparse is None:
            from scipy.sparse import csr_matrix

            n = self.num_nodes
            data = np.ones(len(self.indices), dtype=np.float64)
            self._sparse = csr_matrix(
                (data, self.indices, self.indptr), shape=(n, n)
            )
        return self._sparse

    def _frontier_sparse(self):
        """float32 0/1 adjacency for distance-only frontier expansion,
        where values are just reachability counts bounded by the max
        degree (exact in float32) and bandwidth is the bottleneck."""
        if self._bfs_sparse is None:
            from scipy.sparse import csr_matrix

            n = self.num_nodes
            data = np.ones(len(self.indices), dtype=np.float32)
            self._bfs_sparse = csr_matrix(
                (data, self.indices, self.indptr), shape=(n, n)
            )
        return self._bfs_sparse

    def distance_batch(
        self, sources: np.ndarray, active: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Hop distances from many sources at once: an ``(n, len(sources))``
        int32 matrix, -1 for unreachable.

        Level-synchronous expansion of all source frontiers together —
        one sparse·dense matmul per BFS level for the whole batch — which
        amortizes the per-level array overhead that makes one-source-at-a-
        time frontier BFS slow.  Column ``j`` equals
        ``bfs_distances(sources[j])``.

        *active*, when given, is a length-``n`` boolean mask restricting
        the BFS to the induced subgraph on the True positions: inactive
        positions are never visited, never expanded, and stay -1 in every
        column — what the percolation sweeps need to measure a partially
        removed graph without rebuilding the view.  All *sources* must be
        active.
        """
        n = self.num_nodes
        batch = int(sources.size)
        distances = np.full((n, batch), -1, dtype=np.int32)
        if n == 0 or batch == 0:
            return distances
        if active is not None and not active[sources].all():
            raise ValueError("all sources must be active positions")
        adjacency = self._frontier_sparse()
        cols = np.arange(batch)
        distances[sources, cols] = 0
        frontier = np.zeros((n, batch), dtype=np.float32)
        frontier[sources, cols] = 1.0
        depth = 0
        while True:
            reached = adjacency @ frontier
            fresh = (reached > 0) & (distances < 0)
            if active is not None:
                fresh &= active[:, None]
            if not fresh.any():
                return distances
            depth += 1
            distances[fresh] = depth
            frontier = fresh.astype(np.float32)

    def __repr__(self) -> str:
        return f"<CSRView: {self.num_nodes} nodes, {self.num_edges} edges>"
