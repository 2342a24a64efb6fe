"""Percolation-sweep shoot-out: reference sweeps vs the CSR kernels.

Per strategy on a BA(m=2) graph at n = 3000, the reference
``removal_sweep`` in tests/resilience/oracles.py races
``percolation_sweep``, and the dict-BFS oracle there races the sampled
path-inflation sweep.
Every timed pair is also an oracle check: the two must return
bit-identical trajectories, so a timing run can never report a speedup
for a divergent kernel. The
table goes to ``output/resilience.txt``; the acceptance floor —
median sweep speedup >= 3x — lives in ``perf_floors.json``
(``resilience-median-speedup``) and is enforced against the published
``median_speedup`` value by the perf fixture.
"""

import math
import statistics
import time

from repro.core.report import format_table
from repro.generators import BarabasiAlbertGenerator
from repro.resilience import (
    AttackStrategy,
    path_inflation_sweep,
    percolation_sweep,
)
from tests.resilience import oracles

N = 3000

SWEEP_STRATEGIES = (
    AttackStrategy.RANDOM,
    AttackStrategy.DEGREE,
    AttackStrategy.DEGREE_STATIC,
)


def _timed(fn, **kwargs):
    start = time.perf_counter()
    result = fn(**kwargs)
    return result, time.perf_counter() - start


def _trajectories_equal(a, b):
    if a.fractions_removed != b.fractions_removed:
        return False
    # Giant-fraction sweeps never hold NaN; inflation sweeps may (a step
    # that fragments the sample), and NaN must match NaN.
    xs = getattr(a, "mean_distances", None) or a.giant_fractions
    ys = getattr(b, "mean_distances", None) or b.giant_fractions
    for x, y in zip(xs, ys):
        if isinstance(x, float) and math.isnan(x):
            if not math.isnan(y):
                return False
        elif x != y:
            return False
    return True


def test_resilience_sweep_speedups(perf, record_text):
    perf.bench_id = "resilience"
    graph = BarabasiAlbertGenerator(m=2).generate(N, seed=1)
    rows = []
    speedups = {}

    for strategy in SWEEP_STRATEGIES:
        python_run, python_s = _timed(
            oracles.removal_sweep, graph=graph, strategy=strategy, seed=2,
        )
        csr_run, csr_s = _timed(
            percolation_sweep, graph=graph, strategy=strategy, seed=2,
        )
        assert _trajectories_equal(python_run, csr_run), strategy
        speedup = python_s / csr_s
        speedups[f"sweep:{strategy.value}"] = speedup
        rows.append(
            ["percolation_sweep", strategy.value, python_s, csr_s, speedup]
        )

    python_inf, python_s = _timed(
        oracles.path_inflation_sweep, graph=graph, seed=2,
    )
    csr_inf, csr_s = _timed(path_inflation_sweep, graph=graph, seed=2)
    assert _trajectories_equal(python_inf, csr_inf)
    rows.append(
        ["path_inflation_sweep", "random", python_s, csr_s, python_s / csr_s]
    )

    table = format_table(
        ["kernel", "strategy", "reference s", "csr s", "speedup"],
        rows,
        title=f"resilience kernels: reference vs csr (BA m=2, n={N}, seed=2)",
    )
    median = statistics.median(speedups.values())
    summary = (
        f"median percolation-sweep speedup across {len(speedups)} strategies"
        f" at n={N}: {median:.2f}x"
    )
    print()
    print(table)
    print(summary)
    record_text("resilience.txt", table + "\n" + summary)
    perf.params["n"] = N
    perf.values["median_speedup"] = median
