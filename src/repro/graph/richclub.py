"""Rich-club structure (experiment F7).

The rich-club coefficient φ(k) is the edge density among nodes of degree
greater than k.  The AS map's top providers form a dense interconnected
club; whether a model reproduces that is only meaningful after normalizing
by a degree-preserving random reference (Colizza et al. 2006), since heavy
tails alone inflate φ(k).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..stats.rng import SeedLike, make_rng
from .graph import Graph

__all__ = ["rich_club_coefficient", "normalized_rich_club", "rich_club_spectrum"]

Node = Hashable


def rich_club_coefficient(graph: Graph) -> Dict[int, float]:
    """φ(k) for every degree k present: density among nodes with degree > k.

    For each threshold k, ``φ(k) = 2 E_{>k} / (N_{>k} (N_{>k} - 1))``;
    thresholds where fewer than two nodes qualify are omitted.  ``E_{>k}``
    is the suffix sum of a histogram of per-edge min endpoint degrees and
    ``N_{>k}`` the suffix sum of the degree histogram on the CSR view — two
    ``np.bincount`` calls and two reversed cumsums, all exact integers.
    """
    view = graph.csr()
    degrees = view.degrees
    if view.num_nodes == 0:
        return {}
    max_k = int(degrees.max())
    if max_k == 0:
        return {}
    u, v, _ = view.edge_arrays()
    edge_min = np.minimum(degrees[u], degrees[v])
    edge_hist = np.bincount(edge_min, minlength=max_k + 1)
    node_hist = np.bincount(degrees, minlength=max_k + 1)
    # suffix[k] == count of entries with value > k (sentinel 0 at max_k).
    edges_above = np.concatenate(
        (np.cumsum(edge_hist[::-1])[::-1][1:], [0])
    )
    nodes_above = np.concatenate(
        (np.cumsum(node_hist[::-1])[::-1][1:], [0])
    )
    phi: Dict[int, float] = {}
    for k in range(max_k):
        size = int(nodes_above[k])
        if size >= 2:
            phi[k] = 2.0 * int(edges_above[k]) / (size * (size - 1))
    return phi


def normalized_rich_club(graph: Graph, reference: Graph) -> Dict[int, float]:
    """ρ(k) = φ(k) / φ_ref(k) against a degree-preserving *reference*.

    Thresholds missing from either spectrum, or where the reference density
    is zero, are omitted.  Use
    :func:`repro.generators.random_reference.rewired_reference` to build the
    null model.
    """
    phi = rich_club_coefficient(graph)
    phi_ref = rich_club_coefficient(reference)
    out: Dict[int, float] = {}
    for k, value in phi.items():
        ref = phi_ref.get(k)
        if ref:
            out[k] = value / ref
    return out


def rich_club_spectrum(
    graph: Graph, reference: Optional[Graph] = None
) -> List[Tuple[int, float]]:
    """(k, φ(k)) — or (k, ρ(k)) when *reference* is given — as sorted rows."""
    if reference is None:
        return sorted(rich_club_coefficient(graph).items())
    return sorted(normalized_rich_club(graph, reference).items())
