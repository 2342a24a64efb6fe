"""Generation-engine shoot-out: python vs vector growth kernels.

One run per (model, size, engine) cell over every generator family that
still has two engines — the engine-sensitive ones, whose vector kernels
build different (distributionally equivalent) graphs — reported as
wall-clock and nodes/sec.  The draw-order-preserving families have a
single kernel, so there is nothing to race.  The table is written to
``output/generators.txt``; the acceptance floor — median speedup >= 2x
across these families at the full paper scale (n = 11000) — lives in
``perf_floors.json`` (``generators-median-speedup``) and is enforced
against the published ``median_speedup`` value by the perf fixture.
"""

import statistics
import time

import pytest

from repro.core.report import format_table
from repro.generators import (
    AlbertBarabasiGenerator,
    BarabasiAlbertGenerator,
    BianconiBarabasiGenerator,
    GlpGenerator,
    PfpGenerator,
    SerranoGenerator,
)

SIZES = (1000, 5000, 11000)
FULL_SCALE = 11000

FAMILIES = (
    ("albert-barabasi", lambda e: AlbertBarabasiGenerator(engine=e)),
    ("barabasi-albert", lambda e: BarabasiAlbertGenerator(m=2, engine=e)),
    ("bianconi-barabasi", lambda e: BianconiBarabasiGenerator(m=2, engine=e)),
    ("glp", lambda e: GlpGenerator(engine=e)),
    ("pfp", lambda e: PfpGenerator(engine=e)),
    ("serrano", lambda e: SerranoGenerator(engine=e)),
)


def _timed_generate(make, engine, n, seed):
    generator = make(engine)
    start = time.perf_counter()
    graph = generator.generate(n, seed=seed)
    elapsed = time.perf_counter() - start
    return graph, elapsed


def test_generator_engine_speedups(perf, record_text):
    perf.bench_id = "generators"
    rows = []
    full_scale_speedups = {}
    for name, make in FAMILIES:
        for n in SIZES:
            python_graph, python_s = _timed_generate(make, "python", n, seed=1)
            vector_graph, vector_s = _timed_generate(make, "vector", n, seed=1)
            assert python_graph.num_nodes == vector_graph.num_nodes
            assert python_graph.num_nodes >= 0.9 * n
            speedup = python_s / vector_s
            rows.append(
                [
                    name,
                    n,
                    python_s,
                    vector_s,
                    n / python_s,
                    n / vector_s,
                    speedup,
                ]
            )
            if n == FULL_SCALE:
                full_scale_speedups[name] = speedup
    table = format_table(
        [
            "model",
            "n",
            "python s",
            "vector s",
            "py nodes/s",
            "vec nodes/s",
            "speedup",
        ],
        rows,
        title="generation engines: python vs vector (seed=1, one run per cell)",
    )
    median = statistics.median(full_scale_speedups.values())
    summary = (
        f"median speedup across {len(full_scale_speedups)} families"
        f" at n={FULL_SCALE}: {median:.2f}x"
    )
    print()
    print(table)
    print(summary)
    record_text("generators.txt", table + "\n" + summary)
    perf.params["full_scale"] = FULL_SCALE
    perf.values["median_speedup"] = median
