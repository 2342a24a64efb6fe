"""Microbenchmarks for the core algorithms.

Unlike the experiment benches (one run, shape assertions), these measure
raw algorithm throughput with repeated rounds — the numbers to watch when
optimizing the engine.  Graphs are built once per session.
"""

import time

import pytest

from repro.core.report import format_table
from repro.generators import BarabasiAlbertGenerator, SerranoGenerator
from repro.graph import (
    approximate_betweenness,
    betweenness_centrality,
    core_numbers,
    cycle_counts_3_4_5,
    path_length_distribution,
    rich_club_coefficient,
    triangles_per_node,
)
from repro.graph.correlations import degree_assortativity, knn_by_degree
from repro.graph.shortest_paths import average_path_length, eccentricities
from repro.stats import FenwickSampler, fit_powerlaw_auto_xmin
from tests.graph.oracles import ORACLES, oracles_in_place


@pytest.fixture(scope="module")
def ba_2k():
    return BarabasiAlbertGenerator(m=2).generate(2000, seed=1)


@pytest.fixture(scope="module")
def ba_10k():
    return BarabasiAlbertGenerator(m=2).generate(10_000, seed=1)


def test_micro_fenwick_sampling(benchmark):
    sampler = FenwickSampler(range(1, 10_001), seed=1)

    def draw_batch():
        for _ in range(10_000):
            sampler.sample()

    benchmark(draw_batch)


def test_micro_kcore_10k(benchmark, ba_10k):
    result = benchmark(core_numbers, ba_10k)
    assert max(result.values()) == 2


def test_micro_triangles_2k(benchmark, ba_2k):
    result = benchmark(triangles_per_node, ba_2k)
    assert sum(result.values()) > 0


def test_micro_cycles_2k(benchmark, ba_2k):
    result = benchmark(cycle_counts_3_4_5, ba_2k)
    assert result[3] > 0


def test_micro_betweenness_pivots(benchmark, ba_2k):
    result = benchmark(
        approximate_betweenness, ba_2k, num_pivots=50, seed=2
    )
    assert max(result.values()) > 0


def test_micro_sampled_paths(benchmark, ba_10k):
    stats = benchmark(
        path_length_distribution, ba_10k, max_sources=50, seed=3
    )
    assert stats.mean > 1

def test_micro_rich_club_2k(benchmark, ba_2k):
    result = benchmark(rich_club_coefficient, ba_2k)
    assert result


def test_micro_powerlaw_fit_2k(benchmark, ba_2k):
    degrees = list(ba_2k.degrees().values())
    fit = benchmark(fit_powerlaw_auto_xmin, degrees)
    assert 2.0 < fit.gamma < 4.0


#: (label, kernel, keyword arguments, required speedup) for the CSR
#: shoot-out against the dict-walking oracles in tests/graph/oracles.py.
#: The ≥5x floors are the acceptance bars on the two heaviest kernels; the
#: remaining rows are recorded without a floor (tiny absolute times make
#: their ratios noisy).
_CSR_KERNELS = (
    ("average_path_length", average_path_length, {}, 5.0),
    ("betweenness (exact)", betweenness_centrality, {}, 5.0),
    (
        "betweenness (50 pivots)",
        approximate_betweenness,
        {"num_pivots": 50, "seed": 2},
        None,
    ),
    ("eccentricities", eccentricities, {}, None),
    ("triangles_per_node", triangles_per_node, {}, None),
    ("core_numbers", core_numbers, {}, None),
    ("rich_club_coefficient", rich_club_coefficient, {}, None),
    ("knn_by_degree", knn_by_degree, {}, None),
    ("degree_assortativity", degree_assortativity, {}, None),
)


def test_micro_csr_kernel_speedups(record_text):
    """Oracle vs CSR kernel, per kernel, on one BA graph (n=3000).

    Values first — each kernel must return its oracle's values — then the
    wall-clock table is written to ``output/csr_kernels.txt`` and the two
    headline kernels are held to the ≥5x acceptance floor.  The oracle
    column runs the kernel with every kernel it reaches swapped for its
    oracle, the swap itself outside the timer.
    """
    graph = BarabasiAlbertGenerator(m=2).generate(3000, seed=1)
    rows = []
    floors = {}
    for label, kernel, kwargs, floor in _CSR_KERNELS:
        with oracles_in_place():
            start = time.perf_counter()
            python_value = ORACLES.get(kernel, kernel)(graph, **kwargs)
            python_s = time.perf_counter() - start
        start = time.perf_counter()
        csr_value = kernel(graph, **kwargs)
        csr_s = time.perf_counter() - start
        if isinstance(python_value, dict) and python_value and isinstance(
            next(iter(python_value.values())), float
        ):
            for key, expected in python_value.items():
                assert abs(csr_value[key] - expected) <= 1e-9 * max(
                    1.0, abs(expected)
                ), (label, key)
        else:
            assert python_value == csr_value, label
        speedup = python_s / csr_s
        rows.append([label, python_s, csr_s, speedup])
        if floor is not None:
            floors[label] = (speedup, floor)
    table = format_table(
        ["kernel", "oracle s", "csr s", "speedup"],
        rows,
        title="CSR kernel shoot-out (barabasi-albert m=2 n=3000 seed=1)",
    )
    print()
    print(table)
    record_text("csr_kernels.txt", table)
    for label, (speedup, floor) in floors.items():
        assert speedup >= floor, (label, speedup)


def test_micro_serrano_generation(benchmark):
    generator = SerranoGenerator()
    graph = benchmark.pedantic(
        generator.generate, args=(1000,), kwargs={"seed": 4}, rounds=2, iterations=1
    )
    assert graph.num_nodes == 1000
