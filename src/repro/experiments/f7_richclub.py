"""Experiment F7 — rich-club spectra, normalized by a degree-preserving null.

Whether top providers form a denser-than-chance club separates internet
models: PFP was built to produce a rich club, plain BA famously does not
(Colizza et al. 2006).  The figure reports ρ(k) = φ(k)/φ_null(k); the table
reports the mean of ρ over the top-decile clubs, those holding 1–10% of the
giant's nodes — above 1 means a genuine rich club.  Smaller clubs of a few
hubs are cliques in the graph and in its null alike, so their ρ reads 1
whatever the model.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from ..datasets.asmap import reference_as_map
from ..generators.random_reference import rewired_reference
from ..graph.richclub import normalized_rich_club
from ..graph.traversal import giant_component
from .base import ExperimentResult
from .rosters import standard_roster

__all__ = ["run_f7"]

_DEFAULT_MODELS = ("barabasi-albert", "plrg", "glp", "pfp", "serrano")

#: The club of threshold k is the giant's nodes with degree > k; the table
#: averages ρ(k) over the thresholds whose club holds this share of them.
CLUB_SHARE = (0.01, 0.10)


def run_f7(
    n: int = 1500,
    swaps_per_edge: float = 5.0,
    seed: int = 6,
    models: Optional[list] = None,
) -> ExperimentResult:
    """Normalized rich-club spectra vs Maslov–Sneppen nulls."""
    result = ExperimentResult(
        experiment_id="F7", title="Normalized rich-club spectrum rho(k)"
    )
    roster = standard_roster(n)
    selected = models if models is not None else list(_DEFAULT_MODELS)
    rows = []

    def add(name, graph):
        gc = giant_component(graph)
        null = rewired_reference(gc, swaps_per_edge=swaps_per_edge, seed=seed)
        rho = normalized_rich_club(gc, null)
        points = sorted(rho.items())
        result.add_series(f"{name} (k, rho)", [(float(k), v) for k, v in points])
        degrees = sorted(gc.degrees().values())
        low, high = (share * len(degrees) for share in CLUB_SHARE)
        top = [
            v for k, v in points
            if low <= len(degrees) - bisect_right(degrees, k) <= high
        ]
        top_mean = sum(top) / len(top) if top else float("nan")
        rows.append([name, top_mean])
        return top_mean

    ref_club = add("reference", reference_as_map(n))
    for name in selected:
        add(name, roster[name].generate(n, seed=seed))

    result.add_table(
        "top-decile normalized rich club",
        ["model", "mean rho (clubs of 1-10% of nodes)"],
        rows,
    )
    result.notes["reference_top_rho"] = ref_club
    by_name = {row[0]: row[1] for row in rows}
    if "pfp" in by_name and "barabasi-albert" in by_name:
        result.notes["pfp_minus_ba_rho"] = by_name["pfp"] - by_name["barabasi-albert"]
    return result
