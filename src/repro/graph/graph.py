"""Weighted undirected graph engine.

All generators and metrics in :mod:`repro` operate on :class:`Graph`, a
dictionary-of-dictionaries adjacency structure tailored to AS-level topology
work:

* **undirected** — AS adjacencies are symmetric at the topology level;
* **weighted** — an edge weight models link *bandwidth* in discretized units:
  weighted-growth models reinforce existing links, which increments the
  weight (the paper-world "multiple connections between the same nodes");
* **no self-loops** — an AS does not peer with itself in any published map;
* integer-friendly node ids, but any hashable id works.

The *topological degree* ``degree(u)`` counts distinct neighbors; the
*strength* ``strength(u)`` sums incident edge weights (total bandwidth).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Graph"]

Node = Hashable


class Graph:
    """Undirected weighted graph with O(1) edge lookup.

    >>> g = Graph()
    >>> g.add_edge(1, 2)
    >>> g.add_edge(1, 2)          # reinforce: weight becomes 2
    >>> g.degree(1), g.strength(1)
    (1, 2.0)
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._adj: Dict[Node, Dict[Node, float]] = {}
        self._num_edges = 0
        self._total_weight = 0.0
        # Monotonic mutation counter: every node/edge/weight change bumps
        # it, invalidating the cached CSR view and fingerprint below.
        self._version = 0
        self._csr_cache: Optional[Tuple[int, object]] = None
        self._fingerprint_cache: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------ nodes

    def add_node(self, node: Node) -> None:
        """Insert an isolated node (no-op if already present)."""
        if node not in self._adj:
            self._adj[node] = {}
            self._version += 1

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Insert many nodes."""
        for node in nodes:
            self.add_node(node)

    def has_node(self, node: Node) -> bool:
        """Whether *node* is in the graph."""
        return node in self._adj

    def remove_node(self, node: Node) -> None:
        """Delete *node* and all incident edges."""
        if node not in self._adj:
            raise KeyError(f"node {node!r} not in graph")
        for neighbor in list(self._adj[node]):
            self.remove_edge(node, neighbor)
        del self._adj[node]
        self._version += 1

    def nodes(self) -> Iterator[Node]:
        """Iterate over node ids."""
        return iter(self._adj)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    # ------------------------------------------------------------------ edges

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add the edge (u, v) or reinforce it by *weight*.

        Creating endpoints as needed.  Adding an existing edge accumulates
        weight rather than replacing it — this is the bandwidth-reinforcement
        semantics weighted growth models rely on.
        """
        if u == v:
            raise ValueError(f"self-loops are not allowed (node {u!r})")
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        self.add_node(u)
        self.add_node(v)
        if v in self._adj[u]:
            self._adj[u][v] += weight
            self._adj[v][u] += weight
        else:
            self._adj[u][v] = weight
            self._adj[v][u] = weight
            self._num_edges += 1
        self._total_weight += weight
        self._version += 1

    def add_edges(self, edges: Iterable[Tuple]) -> None:
        """Bulk :meth:`add_edge`: each item is ``(u, v)`` or ``(u, v, weight)``.

        Same semantics per edge (endpoint creation, weight reinforcement on
        repeats, no self-loops), but the whole batch pays one version bump —
        the path the growth kernels and dataset loaders commit their
        edge blocks through.
        """
        adj = self._adj
        num_edges = self._num_edges
        total_weight = self._total_weight
        mutated = False
        try:
            for item in edges:
                if len(item) == 3:
                    u, v, weight = item
                    weight = float(weight)
                else:
                    u, v = item
                    weight = 1.0
                if u == v:
                    raise ValueError(f"self-loops are not allowed (node {u!r})")
                if weight <= 0:
                    raise ValueError(f"edge weight must be positive, got {weight}")
                nbrs_u = adj.get(u)
                if nbrs_u is None:
                    nbrs_u = adj[u] = {}
                    mutated = True
                nbrs_v = adj.get(v)
                if nbrs_v is None:
                    nbrs_v = adj[v] = {}
                    mutated = True
                if v in nbrs_u:
                    nbrs_u[v] += weight
                    nbrs_v[u] += weight
                else:
                    nbrs_u[v] = weight
                    nbrs_v[u] = weight
                    num_edges += 1
                total_weight += weight
                mutated = True
        finally:
            self._num_edges = num_edges
            self._total_weight = total_weight
            if mutated:
                self._version += 1

    def set_edge_weight(self, u: Node, v: Node, weight: float) -> None:
        """Overwrite the weight of an existing edge."""
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
        self._total_weight += weight - self._adj[u][v]
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._version += 1

    def remove_edge(self, u: Node, v: Node) -> None:
        """Delete the edge (u, v) entirely, whatever its weight."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
        self._total_weight -= self._adj[u][v]
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1
        self._version += 1

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the edge (u, v) exists."""
        return u in self._adj and v in self._adj[u]

    def edge_weight(self, u: Node, v: Node, default: Optional[float] = None) -> float:
        """Weight of edge (u, v); *default* if absent (raises if no default)."""
        if self.has_edge(u, v):
            return self._adj[u][v]
        if default is not None:
            return default
        raise KeyError(f"edge ({u!r}, {v!r}) not in graph")

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        """Iterate over each undirected edge exactly once."""
        seen = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def weighted_edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Iterate (u, v, weight) over each undirected edge exactly once."""
        seen = set()
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if v not in seen:
                    yield (u, v, w)
            seen.add(u)

    @property
    def num_edges(self) -> int:
        """Number of distinct edges (pairs), ignoring weights."""
        return self._num_edges

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights — total network bandwidth."""
        return self._total_weight

    # ------------------------------------------------------------- adjacency

    def neighbors(self, node: Node) -> Iterator[Node]:
        """Iterate over the neighbors of *node*."""
        return iter(self._adj[node])

    def neighbor_weights(self, node: Node) -> Dict[Node, float]:
        """Read-only view of neighbor → weight for *node*.

        The returned mapping is the live adjacency dict; callers must not
        mutate it (use :meth:`add_edge` / :meth:`remove_edge`).
        """
        return self._adj[node]

    def degree(self, node: Node) -> int:
        """Topological degree: number of distinct neighbors."""
        return len(self._adj[node])

    def strength(self, node: Node) -> float:
        """Weighted degree: total bandwidth incident to *node*."""
        return float(sum(self._adj[node].values()))

    def degrees(self) -> Dict[Node, int]:
        """Mapping node → degree."""
        return {u: len(nbrs) for u, nbrs in self._adj.items()}

    def degree_sequence(self) -> List[int]:
        """Sorted (descending) list of degrees."""
        return sorted((len(nbrs) for nbrs in self._adj.values()), reverse=True)

    def strengths(self) -> Dict[Node, float]:
        """Mapping node → strength (weighted degree)."""
        return {u: float(sum(nbrs.values())) for u, nbrs in self._adj.items()}

    @property
    def average_degree(self) -> float:
        """Mean topological degree ⟨k⟩ = 2E/N."""
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    @property
    def max_degree(self) -> int:
        """Largest topological degree in the graph."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    # ------------------------------------------------------------- CSR view

    def csr(self):
        """Cached :class:`~repro.graph.csr.CSRView` of this graph.

        Built in one adjacency pass on first call, then reused until the
        graph mutates: every :meth:`add_node` / :meth:`add_edge` /
        :meth:`set_edge_weight` / :meth:`remove_edge` / :meth:`remove_node`
        bumps an internal version counter that invalidates the cache, so a
        stale view can never be observed through this method.  The view
        itself is immutable — mutating the graph after ``csr()`` leaves
        previously returned views untouched.
        """
        cached = self._csr_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        from .csr import CSRView

        view = CSRView.from_graph(self)
        self._csr_cache = (self._version, view)
        return view

    # ----------------------------------------------------------- persistence

    def to_store(self, path, checkpoint_every=None, snapshot: bool = True):
        """Persist this graph to a :class:`~repro.store.store.GraphStore`.

        Convenience front for ``GraphStore(path).save(self, ...)``; returns
        the store's :meth:`~repro.store.store.GraphStore.info` dict.
        """
        from ..store import GraphStore

        return GraphStore(path).save(
            self, checkpoint_every=checkpoint_every, snapshot=snapshot
        )

    @classmethod
    def from_store(cls, path, name: str = "") -> "Graph":
        """Load a graph persisted with :meth:`to_store` (or the CLI)."""
        from ..store import GraphStore

        return GraphStore.open(path).load(name=name)

    # ------------------------------------------------------------- derived

    def copy(self) -> "Graph":
        """Deep copy of the graph."""
        out = Graph(name=self.name)
        out._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        out._num_edges = self._num_edges
        out._total_weight = self._total_weight
        return out

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Graph induced on *nodes* (edges with both endpoints inside).

        Nodes are inserted in this graph's iteration order — not the order
        (or set-iteration order) of *nodes* — so the result is identical no
        matter how the kept set was assembled.  Seeded algorithms that
        sample from a subgraph's node list depend on this.
        """
        keep = set(nodes)
        ordered = [u for u in self._adj if u in keep]
        out = Graph(name=self.name)
        for u in ordered:
            out.add_node(u)
        for u in ordered:
            for v, w in self._adj[u].items():
                if v in keep and not out.has_edge(u, v):
                    out.add_edge(u, v, weight=w)
        return out

    def relabeled(self) -> "Graph":
        """Copy with nodes relabeled to consecutive integers 0..N-1.

        Order follows the current node iteration order, so the relabeling is
        deterministic for a deterministically built graph.
        """
        mapping = {node: i for i, node in enumerate(self._adj)}
        out = Graph(name=self.name)
        out.add_nodes(range(len(mapping)))
        for u, v, w in self.weighted_edges():
            out.add_edge(mapping[u], mapping[v], weight=w)
        return out

    def fingerprint(self) -> int:
        """Stable 62-bit content hash of the node set and weighted edge set.

        Pure function of the graph's content — independent of insertion
        order, process, and Python's randomized string hashing — so it can
        identify a topology in cache keys and derived seeds (e.g. the
        template of a null-model generator).  The name is excluded: two
        graphs with identical structure fingerprint identically.  Weights
        are canonicalized through ``float``, so an integer weight 1 and a
        float weight 1.0 describe the same structure.

        The value is memoized against the mutation counter, and when a
        :meth:`csr` view is already cached the edge walk reads the view's
        contiguous arrays instead of re-traversing the adjacency dicts —
        repeated cache probes on an unchanged topology cost a dict lookup.
        """
        cached = self._fingerprint_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        if self._csr_cache is not None and self._csr_cache[0] == self._version:
            view = self._csr_cache[1]
            ids = view.nodes
            us, vs, ws = view.edge_arrays()
            triples = zip(
                (ids[i] for i in us.tolist()),
                (ids[i] for i in vs.tolist()),
                ws.tolist(),
            )
        else:
            triples = self.weighted_edges()
        nodes = sorted(repr(node) for node in self._adj)
        edges = sorted(
            "|".join((min(ru, rv), max(ru, rv), repr(float(w))))
            for ru, rv, w in (
                (repr(u), repr(v), w) for u, v, w in triples
            )
        )
        canon = ";".join(nodes) + "#" + ";".join(edges)
        digest = hashlib.sha256(canon.encode("utf-8")).digest()
        value = int.from_bytes(digest[:8], "big") & ((1 << 62) - 1)
        self._fingerprint_cache = (self._version, value)
        return value

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label}: {self.num_nodes} nodes, {self.num_edges} edges, weight {self.total_weight:g}>"
