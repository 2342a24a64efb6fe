"""Resilience stress test: attacks, failures, and epidemics.

Run:

    python examples/resilience_stress_test.py [n]

Subjects an internet-like topology and an Erdős–Rényi strawman to the two
canonical dynamics experiments — Albert–Jeong–Barabási node removal and
SIS epidemic spreading — and draws the results as ASCII figures.
"""

from __future__ import annotations

import sys

from repro.core import format_table
from repro.generators import ErdosRenyiGnm, SerranoGenerator
from repro.graph import epidemic_threshold, giant_component, spectral_radius
from repro.resilience import (
    AttackStrategy,
    critical_fraction,
    percolation_sweep,
    prevalence_curve,
)
from repro.viz import multi_scatter


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1000

    print(f"Building a {n}-AS internet and a matched ER strawman...")
    internet = giant_component(SerranoGenerator().generate(n, seed=99))
    strawman = giant_component(
        ErdosRenyiGnm(m=internet.num_edges).generate(internet.num_nodes, seed=99)
    )
    print(f"  internet: {internet!r}")
    print(f"  strawman: {strawman!r}")
    print()

    print("1. Removal sweeps (fraction removed vs giant component)...")
    series = {}
    rows = []
    for label, graph in (("internet", internet), ("er", strawman)):
        random_run = percolation_sweep(graph, AttackStrategy.RANDOM, steps=12, seed=1)
        attack_run = percolation_sweep(graph, AttackStrategy.DEGREE, steps=12, seed=1)
        series[f"{label} random"] = random_run.as_points()
        series[f"{label} attack"] = attack_run.as_points()
        rows.append(
            [
                label,
                random_run.giant_at(0.5),
                attack_run.giant_at(0.5),
                critical_fraction(attack_run) or float("nan"),
            ]
        )
    print(multi_scatter(series, width=56, height=16,
                        title="giant component under removal"))
    print()
    print(format_table(
        ["topology", "giant @50% random", "giant @50% attack", "attack collapse at"],
        rows,
    ))
    print()

    print("2. SIS epidemics (infection rate vs endemic prevalence)...")
    betas = (0.01, 0.02, 0.04, 0.08, 0.16, 0.32)
    curves = {
        "internet": prevalence_curve(internet, betas, seed=2),
        "er": prevalence_curve(strawman, betas, seed=2),
    }
    print(multi_scatter(curves, width=56, height=14, log_x=True,
                        title="SIS phase diagram"))
    for label, graph in (("internet", internet), ("er", strawman)):
        print(f"  {label}: lambda1 = {spectral_radius(graph):.2f}, "
              f"spectral threshold = {epidemic_threshold(graph) * 0.5:.4f} "
              f"(at mu = 0.5)")
    print()
    print("Takeaway: the internet-like topology survives random failure and")
    print("cheap epidemics that would die on the ER graph — and collapses")
    print("first when its hubs are targeted. Hubs give and hubs take away.")


if __name__ == "__main__":
    main()
