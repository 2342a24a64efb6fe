"""k-core decomposition (experiment F6).

The k-core of a graph is the maximal subgraph in which every node has degree
at least k inside the subgraph; a node's *coreness* is the largest k for
which it survives.  The AS map shows an unusually deep core hierarchy
(coreness ≈ 25 at year-2001 scale), which shallow growth models (plain BA:
coreness = m) fail to reproduce — making the core profile one of the
strongest discriminating measurements.

Implementation: the Batagelj–Zaveršnik bucket-peeling algorithm, O(N + E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

import numpy as np

from .csr import CSRView
from .graph import Graph

__all__ = [
    "coreness",
    "core_numbers",
    "k_core",
    "CoreProfile",
    "core_profile",
    "degeneracy",
]

Node = Hashable


def coreness(view: CSRView) -> np.ndarray:
    """Coreness of every position of *view* (int64) via bucket peeling.

    Whole degree-≤k shells are peeled per pass with array masks, and the
    neighbor-degree decrements land via one ``np.bincount`` per cascade
    step.
    """
    n = view.num_nodes
    degrees = view.degrees.copy()
    core = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    remaining = n
    level = 0
    while remaining:
        level = max(level, int(degrees[alive].min()))
        while True:
            peel = np.nonzero(alive & (degrees <= level))[0]
            if peel.size == 0:
                break
            core[peel] = level
            alive[peel] = False
            remaining -= peel.size
            block = view.neighbor_block(peel)
            block = block[alive[block]]
            if block.size:
                degrees -= np.bincount(block, minlength=n)
    return core


def core_numbers(graph: Graph) -> Dict[Node, int]:
    """Coreness of every node (the :func:`coreness` peel on the CSR view)."""
    view = graph.csr()
    return dict(zip(view.nodes, coreness(view).tolist()))


def k_core(graph: Graph, k: int) -> Graph:
    """Subgraph induced on nodes of coreness >= k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    cores = core_numbers(graph)
    return graph.subgraph(node for node, c in cores.items() if c >= k)


def degeneracy(graph: Graph) -> int:
    """Maximum coreness over all nodes (0 on an empty graph)."""
    cores = core_numbers(graph)
    return max(cores.values()) if cores else 0


@dataclass(frozen=True)
class CoreProfile:
    """Summary of the k-core hierarchy.

    ``shell_sizes[k]`` — nodes whose coreness is exactly k;
    ``core_sizes[k]`` — nodes whose coreness is at least k (k-core order);
    ``degeneracy`` — deepest non-empty core.
    """

    shell_sizes: Dict[int, int]
    core_sizes: Dict[int, int]
    degeneracy: int

    def rows(self) -> List[Tuple[int, int, int]]:
        """(k, shell size, core size) rows, ascending in k."""
        ks = sorted(set(self.shell_sizes) | set(self.core_sizes))
        return [(k, self.shell_sizes.get(k, 0), self.core_sizes.get(k, 0)) for k in ks]


def core_profile(graph: Graph) -> CoreProfile:
    """Compute the full shell/core size profile of *graph*."""
    cores = core_numbers(graph)
    shell_sizes: Dict[int, int] = {}
    for c in cores.values():
        shell_sizes[c] = shell_sizes.get(c, 0) + 1
    max_core = max(shell_sizes) if shell_sizes else 0
    core_sizes: Dict[int, int] = {}
    running = 0
    for k in range(max_core, -1, -1):
        running += shell_sizes.get(k, 0)
        core_sizes[k] = running
    return CoreProfile(
        shell_sizes=dict(sorted(shell_sizes.items())),
        core_sizes=dict(sorted(core_sizes.items())),
        degeneracy=max_core,
    )
