"""Growth-kernel shoot-out: python oracle loops vs production kernels.

One run per (model, size, kernel) cell over the six families whose
production kernel samples its attachment kernel from other draws than the
scalar python loop it replaced (kept as a test oracle in
``tests/generators/oracles.py``; the two build distributionally
equivalent, different graphs) — reported as wall-clock and nodes/sec.
The draw-order-preserving families build their oracle's exact graph and
are raced in the equivalence suite instead.  The table is written to
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
from tests.generators import oracles

SIZES = (1000, 5000, 11000)
FULL_SCALE = 11000

#: (family, python oracle, production kernel)
FAMILIES = (
    ("albert-barabasi", oracles.ScalarAlbertBarabasiGenerator, AlbertBarabasiGenerator),
    ("barabasi-albert", oracles.ScalarBarabasiAlbertGenerator, BarabasiAlbertGenerator),
    (
        "bianconi-barabasi",
        oracles.FenwickBianconiBarabasiGenerator,
        BianconiBarabasiGenerator,
    ),
    ("glp", oracles.FenwickGlpGenerator, GlpGenerator),
    ("pfp", oracles.FenwickPfpGenerator, PfpGenerator),
    ("serrano", oracles.FenwickSerranoGenerator, SerranoGenerator),
)


def _timed_generate(generator_class, n, seed):
    generator = generator_class()
    start = time.perf_counter()
    graph = generator.generate(n, seed=seed)
    elapsed = time.perf_counter() - start
    return graph, elapsed


def test_generator_engine_speedups(perf, record_text):
    perf.bench_id = "generators"
    rows = []
    full_scale_speedups = {}
    for name, oracle, production in FAMILIES:
        for n in SIZES:
            python_graph, python_s = _timed_generate(oracle, n, seed=1)
            vector_graph, vector_s = _timed_generate(production, n, seed=1)
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
            "oracle s",
            "kernel s",
            "oracle nodes/s",
            "kernel nodes/s",
            "speedup",
        ],
        rows,
        title="growth kernels: python oracle vs production (seed=1, one run per cell)",
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
