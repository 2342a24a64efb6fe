"""Reference AS map (substitution for the Oregon Route Views 2001 snapshot).

Every validation experiment compares a candidate model against an
"observed" AS-level topology.  The May 2001 Route Views / AS+ maps are not
redistributable here, so the reference is a *frozen synthetic map*: a
fixed-seed, fixed-parameter run of the geography-aware weighted growth
model, which of the suite's models is the one whose published measurements
match the real map across the full battery.  Its key statistics are frozen
in :data:`REFERENCE_EXPECTED` and asserted by the test suite, so the
reference is as stable as a data file checked into the repository.

Two caveats, stated loudly:

* **Circularity** — the reference is itself generated by one of the models
  under comparison, so experiment T1 measures "distance from an AS-like
  topology", not "distance from the Internet".  Rankings among the *other*
  models are still informative, and the published-literature targets in
  :data:`PUBLISHED_AS_MAP_TARGETS` give the external anchor.
* **Scale** — the default reference has 3 000 ASes (the real May 2001 map
  had ≈ 11 000) to keep the metric battery fast; pass a larger *n* for
  full-scale runs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from ..generators.serrano import SerranoGenerator
from ..graph.graph import Graph
from ..graph.traversal import giant_component

__all__ = [
    "reference_as_map",
    "reference_generator",
    "REFERENCE_SEED",
    "REFERENCE_EXPECTED",
    "PUBLISHED_AS_MAP_TARGETS",
]

#: Fixed seed for the frozen reference map (date of the emulated snapshot).
REFERENCE_SEED = 20010515

#: Statistics of the frozen reference at n=3000, as (centre, absolute
#: tolerance); tests assert the map stays inside each window.  The centres
#: are the map's measured values, printed by
#: ``summarize(reference_as_map(3000), seed=0)`` (``repro.core.metrics``).
REFERENCE_EXPECTED: Dict[str, Tuple[float, float]] = {
    "average_degree": (4.781, 0.8),
    "degree_exponent": (2.037, 0.25),
    "average_clustering": (0.208, 0.12),
    "assortativity": (-0.250, 0.12),
    "average_path_length": (3.048, 0.7),
    "degeneracy": (17.0, 6.0),
}

#: Published measurements of the real 2001 AS(+) maps, used as the external
#: anchor when reading experiment outputs (see EXPERIMENTS.md).
PUBLISHED_AS_MAP_TARGETS: Dict[str, float] = {
    "degree_exponent": 2.2,        # Faloutsos et al. / Pastor-Satorras et al.
    "average_degree": 4.2,         # AS map, ~2001
    "average_clustering": 0.3,     # AS+ map
    "assortativity": -0.19,        # Newman 2002 for the AS map
    "average_path_length": 3.6,    # AS map small world
    "coreness": 25.0,              # k-core depth of the AS+ map (LANET-VI)
    "loop_exponent_3": 1.45,       # Bianconi et al. xi(3)
    "loop_exponent_4": 2.07,       # xi(4)
    "loop_exponent_5": 2.45,       # xi(5)
}


def reference_generator() -> SerranoGenerator:
    """The frozen generator configuration behind the reference map.

    Serrano has one growth kernel, so this configuration and a seed name
    one graph at every size; fingerprint tests pin the map edge-for-edge
    at n=2000 and n=3000.
    """
    return SerranoGenerator(
        omega0=50,
        alpha=0.035,
        beta=0.03,
        delta_prime=0.04,
        r=0.8,
        distance=True,
    )


@lru_cache(maxsize=4)
def reference_as_map(n: int = 3000) -> Graph:
    """The frozen reference AS topology at size *n* (giant component).

    Cached per size; always generated from :data:`REFERENCE_SEED`, so two
    calls anywhere in a process (or across processes) agree edge-for-edge.
    The returned graph must be treated as read-only — copy before mutating.
    """
    raw = reference_generator().generate(n, seed=REFERENCE_SEED)
    graph = giant_component(raw)
    graph.name = f"reference-as-map-{n}"
    return graph
