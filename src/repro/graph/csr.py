"""Compressed-sparse-row view of the graph engine.

:class:`CSRView` is an immutable array snapshot of a :class:`~repro.graph.
graph.Graph`: contiguous ``indptr``/``indices``/``weights`` numpy arrays
plus the node↔index maps that tie array positions back to node ids.  The
metric kernels (BFS path lengths, Brandes betweenness, triangle counting,
k-core peeling, rich-club and correlation sweeps, the percolation sweeps)
run on this view; the dict-walking loops they replaced are kept in the
test suite as oracles.  Path lengths, eccentricities, the diameter and
path inflation share one multi-source BFS, :meth:`CSRView.bfs_levels`:
64 sources per uint64 word, one ``bitwise_or.reduceat`` over the rows
per level, and each level handed out as the bitset of positions first
reached there, so every path quantity is an integer count of set bits.

The view contract:

* **one-pass build** — :meth:`CSRView.from_graph` walks the adjacency
  exactly once; per-row neighbor indices are sorted so intersection-style
  kernels can rely on ordered adjacency;
* **immutable** — every array is marked read-only; a view never changes
  after construction;
* **never stale** — :meth:`Graph.csr` caches the view against a
  monotonically bumped mutation counter, so any ``add_edge`` /
  ``remove_edge`` / ``remove_node`` / ``set_edge_weight`` after the build
  makes the next ``csr()`` call rebuild;
* **backing-agnostic** — kernels only read the arrays, so a view built
  in memory and one reopened from a snapshot with ``np.load(...,
  mmap_mode="r")`` (what the spool and the store hand out) give the same
  bits.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CSRView", "popcount", "resolve_backend"]

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


def popcount(bits: np.ndarray) -> int:
    """Number of set bits in a uint64 array (a :meth:`CSRView.bfs_levels`
    level: the (source, target) pairs at that distance)."""
    return int(np.bitwise_count(bits).sum(dtype=np.int64))


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

    def bfs_levels(
        self, sources: np.ndarray, active: "np.ndarray | None" = None
    ) -> Iterator[np.ndarray]:
        """Bit-parallel BFS from many sources at once, one level at a time.

        Source ``j`` owns bit ``j % 64`` of word ``j // 64``.  For each
        level d = 1, 2, ... this yields an ``(n, words)`` uint64 bitset
        whose row ``i`` has bit ``j`` set exactly when position ``i`` lies
        at hop distance d from ``sources[j]``; it stops after the last
        level that reached anything.  A level costs one gather of the
        frontier words over ``indices`` and one ``bitwise_or.reduceat``
        over the rows, so 64 sources share every array pass, and no
        distance matrix is ever held: callers popcount or OR-reduce the
        levels for what they need.

        *active*, when given, is a length-``n`` boolean mask restricting
        the BFS to the induced subgraph on the True positions: inactive
        positions are never visited and never expanded, which is what the
        percolation sweeps need to measure a partially removed graph
        without rebuilding the view.  An inactive source raises
        :class:`ValueError`.
        """
        sources = np.asarray(sources, dtype=np.int64)
        if self.num_nodes == 0 or sources.size == 0:
            return iter(())
        if active is not None and not active[sources].all():
            raise ValueError("all sources must be active positions")
        return self._levels(sources, active)

    def _levels(
        self, sources: np.ndarray, active: "np.ndarray | None"
    ) -> Iterator[np.ndarray]:
        # reduceat gives an empty segment the element at its start (and
        # rejects a start past the end), so reduce over non-empty rows
        # only; consecutive non-empty starts bound exactly one row each.
        rows = np.flatnonzero(self.degrees)
        if rows.size == 0:
            return
        starts = self.indptr[rows]
        bits = np.arange(sources.size)
        frontier = np.zeros((self.num_nodes, -(-sources.size // 64)), np.uint64)
        # .at, so two sources at one position both set their bit.
        np.bitwise_or.at(
            frontier,
            (sources, bits // 64),
            np.left_shift(np.uint64(1), (bits % 64).astype(np.uint64)),
        )
        visited = frontier.copy()
        if active is not None:
            # Inactive rows count as visited by every source, so no level
            # ever reaches (or expands) them.
            visited[~active] = ~np.uint64(0)
        while True:
            gathered = np.take(frontier, self.indices, axis=0)
            reached = np.bitwise_or.reduceat(gathered, starts, axis=0)
            reached &= ~visited[rows]
            if not reached.any():
                return
            fresh = np.zeros_like(frontier)
            fresh[rows] = reached
            visited |= fresh
            # The next level expands from it: callers only read it.
            fresh.setflags(write=False)
            yield fresh
            frontier = fresh

    def __repr__(self) -> str:
        return f"<CSRView: {self.num_nodes} nodes, {self.num_edges} edges>"
