"""Full-scale validation: the weighted-growth model at 2001-map size,
plus the out-of-core store at 10^5-10^6 nodes.

The other benches run at reduced sizes for speed; this one generates the
model at N = 11 000 — the size of the May 2001 AS map the literature
measured — and checks the battery against the published values directly
(no synthetic reference involved).

The out-of-core series grows a PLRG topology in checkpointed chunks into
a :class:`repro.store.GraphStore`, then *in a fresh subprocess* reopens
the mmap CSR snapshot and runs the size metric group, and at 10^5 nodes
the paths group too (400 sampled BFS sources) — asserting the whole read
path fits a peak-RSS budget that a materialized dict-of-dict graph could
not.  The subprocess matters: ``ru_maxrss`` is a
process-lifetime high-water mark, so measuring in the grower process
would only ever see the growth phase's peak.  The 10^6 point runs when
``REPRO_SCALE_FULL=1`` (a couple of minutes and a few hundred MB of
disk); 10^5 runs everywhere and is the CI scale-smoke gate.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import summarize
from repro.datasets import PUBLISHED_AS_MAP_TARGETS
from repro.generators import SerranoGenerator
from repro.store import GraphStore, grow_to_store


def test_full_scale_2001_map(benchmark, record_experiment):
    graph = benchmark.pedantic(
        SerranoGenerator().generate, args=(11_000,), kwargs={"seed": 2001},
        rounds=1, iterations=1,
    )
    summary = summarize(graph, path_samples=200, seed=0)
    print()
    print(summary)

    targets = PUBLISHED_AS_MAP_TARGETS
    # Degree exponent in the published 2.1-2.3 band (within fit noise).
    assert abs(summary.degree_exponent - targets["degree_exponent"]) < 0.25
    # Disassortativity right on the published r = -0.19.
    assert abs(summary.assortativity - targets["assortativity"]) < 0.06
    # Small world at the published scale.
    assert abs(summary.average_path_length - targets["average_path_length"]) < 0.6
    # Core depth comparable to the AS+ map's ~25 shells.
    assert abs(summary.degeneracy - targets["coreness"]) <= 8
    # Clustering within a factor ~2 of the AS+ map.
    assert summary.average_clustering > 0.5 * targets["average_clustering"] * 0.5
    # Hub scaling: the largest AS connects to a macroscopic fraction.
    assert summary.max_degree_fraction > 0.05


def test_full_scale_engine_speedup(perf):
    """Serrano's growth kernel must hold a >= 3x floor at map scale over
    the python loop it replaced.

    Same seed, production kernel against the scalar oracle in
    tests/generators/oracles.py; the graphs differ (Serrano is
    engine-sensitive — see docs/performance.md) but both are held to the
    published property bands by the battery above and the equivalence
    suite, so this is purely a wall-clock gate — the floor lives in
    ``perf_floors.json`` (``full-scale-serrano-speedup``).
    """
    from tests.generators.oracles import FenwickSerranoGenerator

    start = time.perf_counter()
    python_graph = FenwickSerranoGenerator().generate(11_000, seed=2001)
    python_s = time.perf_counter() - start
    start = time.perf_counter()
    vector_graph = SerranoGenerator().generate(11_000, seed=2001)
    vector_s = time.perf_counter() - start
    assert python_graph.num_nodes == vector_graph.num_nodes == 11_000
    speedup = python_s / vector_s
    print(f"\nserrano n=11000: python {python_s:.2f}s, "
          f"vector {vector_s:.2f}s, speedup {speedup:.2f}x")
    perf.bench_id = "full_scale_serrano"
    perf.params["n"] = 11_000
    perf.values["python_seconds"] = python_s
    perf.values["vector_seconds"] = vector_s
    perf.values["speedup"] = speedup


# One subprocess script: reopen the store's mmap CSR view, measure the
# size group, then the metric groups named after the path (if any), and
# report peak RSS.  peak_rss_kb (VmHWM) rather than ru_maxrss: the child
# is forked from this bloated grower process, and ru_maxrss inherits the
# parent's resident set across fork+exec.  The script imports scipy (the
# component kernel), so the budget must cover the interpreter + numpy +
# scipy baseline; the graph itself must stay out of resident memory.
_MEASURE_SCRIPT = """
import json, sys
from repro.core.metrics import compute_metric_groups
from repro.obs.sampler import peak_rss_kb
from repro.store import GraphStore

store = GraphStore.open(sys.argv[1])
values = store.measure()
if sys.argv[2:]:
    for group in compute_metric_groups(store.csr(), sys.argv[2:]).values():
        values.update(group)
print(json.dumps({"values": values, "peak_rss_kb": peak_rss_kb()}))
"""

# Peak-RSS budgets for the reopen-and-measure subprocess live in
# perf_floors.json (full-scale-rss-1e5 / full-scale-rss-1e6): the
# interpreter + numpy + scipy baseline is ~120 MB; a materialized
# dict-of-dict graph would add ~1 GB at 10^6 nodes, so the budgets fail
# loudly if anything on the read path regresses to materializing.


def _scale_points():
    points = [100_000]
    if os.environ.get("REPRO_SCALE_FULL") == "1":
        points.append(1_000_000)
    return points


@pytest.mark.parametrize("n", _scale_points())
def test_out_of_core_scale_series(n, tmp_path, perf):
    from repro.core.registry import make_generator

    perf.bench_id = f"full_scale_oocore_{n}"

    path = tmp_path / f"plrg_{n}.db"
    start = time.perf_counter()
    report = grow_to_store(
        make_generator("plrg", gamma=2.2),
        n,
        path,
        seed=2026,
        checkpoint_every=50_000,
    )
    grow_s = time.perf_counter() - start
    assert report.num_nodes == n
    assert report.chunks_written == -(-n // 50_000)

    # Reuse without regeneration: a second call must be pure bookkeeping.
    start = time.perf_counter()
    again = grow_to_store(
        make_generator("plrg", gamma=2.2),
        n,
        path,
        seed=2026,
        checkpoint_every=50_000,
    )
    reopen_s = time.perf_counter() - start
    assert not again.regenerated
    assert reopen_s < grow_s

    # The 10^6 point measures size alone: its paths group does not yet fit
    # the 500 MB budget.
    extra_groups = ["paths"] if n < 1_000_000 else []
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _MEASURE_SCRIPT, str(path), *extra_groups],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    result = json.loads(proc.stdout)
    values = result["values"]
    peak_kb = result["peak_rss_kb"]
    print(
        f"\nplrg n={n}: grew {report.num_edges} edges in {grow_s:.1f}s "
        f"({report.chunks_written} chunks), reopen {reopen_s * 1e3:.0f}ms, "
        f"measure peak RSS {peak_kb / 1024:.0f} MB"
    )
    assert values["num_nodes"] > 0.5 * n  # PLRG giant component
    assert 0 < values["giant_fraction"] <= 1.0
    if extra_groups:
        assert 2.0 < values["average_path_length"] < 10.0
    perf.values["grow_seconds"] = grow_s
    perf.values["reopen_seconds"] = reopen_s
    perf.values["measure_peak_rss_kb"] = peak_kb
