"""Experiment A12 (extension) — prefix hijack exposure.

Ballani–Francis–Zhang's measurement on our topologies: when an attacker
originates a victim's prefix, what fraction of the internet routes to the
liar?  Expected shape: capture scales with the attacker's position —
tier-1 attackers poison most ASes, stubs poison almost none — and the
victim's customer cone stays overwhelmingly loyal (only a peer shortcut
toward the attacker can flip a cone member, since peer routes outrank the
provider routes cone members use to reach their own ancestor).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from ..bgpsim.hijack import simulate_hijack
from ..economics.relationships import assign_relationships
from ..generators.serrano import SerranoGenerator
from ..graph.traversal import giant_component
from .base import ExperimentResult

__all__ = ["run_a12"]

#: Graphs per run, grown at seeds ``seed … seed + REPLICATES - 1``.  Every
#: note is the mean over them: on one graph the tier-1 capture of the
#: default configuration reads at or below 0.5 on about one seed in six.
REPLICATES = 10

_CLASSES = ("tier-1 attacker", "mid attacker", "stub attacker")


def _hijack_notes(graph, victims_per_class: int) -> Dict[str, float]:
    """Capture by attacker class, attacker cone sizes and victim cone
    loyalty on one topology."""
    rels = assign_relationships(graph)
    cones = rels.cone_sizes()
    ranked = sorted(cones, key=lambda node: (-cones[node], str(node)))

    attacker_classes: List[Tuple[str, object]] = list(
        zip(_CLASSES, (ranked[0], ranked[len(ranked) // 20], ranked[-1]))
    )
    # Victims are mid-tier providers with real customer cones (5 to N/10
    # members): big enough that the contest is meaningful, small enough
    # that they are not tier-1 themselves.
    candidates = [
        node for node in ranked
        if 5 <= cones[node] <= max(len(ranked) // 10, 6)
    ]
    if len(candidates) < victims_per_class:
        candidates = ranked[2 : 2 + victims_per_class]
    victims = candidates[:victims_per_class]

    notes: Dict[str, float] = {"N": float(graph.num_nodes)}
    loyal_cone_fractions = []
    for class_name, attacker in attacker_classes:
        fractions = []
        for victim in victims:
            if victim == attacker:
                continue
            outcome = simulate_hijack(graph, rels, victim, attacker)
            fractions.append(outcome.capture_fraction)
            # Cone loyalty is the classic *peer-attacker* claim: against a
            # tier-1 the cone may legitimately defect through shorter
            # provider chains, so measure it on the stub scenario only.
            if class_name == "stub attacker":
                cone = rels.customer_cone(victim) - {victim, attacker}
                if cone:
                    loyal_cone_fractions.append(
                        len(cone & outcome.loyal) / len(cone)
                    )
        notes[f"{class_name} cone"] = float(cones[attacker])
        notes[class_name] = sum(fractions) / len(fractions)
    notes["loyalty"] = (
        sum(loyal_cone_fractions) / len(loyal_cone_fractions)
        if loyal_cone_fractions
        else float("nan")
    )
    return notes


def _mean(values: List[float]) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return sum(finite) / len(finite) if finite else float("nan")


def run_a12(
    n: int = 1200,
    victims_per_class: int = 3,
    seed: int = 79,
) -> ExperimentResult:
    """Hijack capture fractions by attacker class, averaged over
    :data:`REPLICATES` graphs."""
    result = ExperimentResult(
        experiment_id="A12", title="Prefix hijack exposure by attacker tier"
    )
    generator = SerranoGenerator()
    replicates = [
        _hijack_notes(
            giant_component(generator.generate(n, seed=seed + r)), victims_per_class
        )
        for r in range(REPLICATES)
    ]
    result.add_table(
        "capture by attacker class",
        ["attacker", "mean attacker cone size", "mean capture fraction"],
        [
            [
                name,
                _mean([rep[f"{name} cone"] for rep in replicates]),
                _mean([rep[name] for rep in replicates]),
            ]
            for name in _CLASSES
        ],
    )
    result.add_table(
        "replicates",
        ["seed", "N", "tier-1 cone", "tier-1 capture", "mid capture",
         "stub capture", "cone loyalty"],
        [
            [seed + r, int(rep["N"]), int(rep["tier-1 attacker cone"]),
             rep["tier-1 attacker"], rep["mid attacker"], rep["stub attacker"],
             rep["loyalty"]]
            for r, rep in enumerate(replicates)
        ],
    )
    result.notes["tier1_capture"] = _mean([rep["tier-1 attacker"] for rep in replicates])
    result.notes["mid_capture"] = _mean([rep["mid attacker"] for rep in replicates])
    result.notes["stub_capture"] = _mean([rep["stub attacker"] for rep in replicates])
    result.notes["victim_cone_loyalty"] = _mean([rep["loyalty"] for rep in replicates])
    return result
