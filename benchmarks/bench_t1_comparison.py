"""T1 — the generator comparison table (Bu–Towsley-style shoot-out).

Also benchmarks the battery runner behind T1: a cold cached run, a warm
rerun (every cell served from the content-addressed cache) and a parallel
cold run, asserting the reported numbers are identical in every mode.
"""

import os
import time

from conftest import run_once

from repro.core.report import format_table
from repro.experiments import run_t1


def test_t1_generator_comparison(benchmark, record_experiment):
    result = run_once(benchmark, run_t1, n=1000, seeds=2)
    record_experiment(result)
    headers, ranking = result.tables["ranking (best first)"]
    order = [name for name, _ in ranking]
    scores = dict(ranking)
    # Shape: the weighted-growth models lead the field...
    assert order[0].startswith("serrano")
    assert "serrano" in order[:3] and "serrano-distance" in order[:3]
    # ...degree-driven AS-fitted models beat plain BA...
    assert scores["glp"] < scores["barabasi-albert"]
    assert scores["pfp"] < scores["barabasi-albert"]
    # ...and the no-heavy-tail baselines trail the heavy-tail field.
    for baseline in ("erdos-renyi", "waxman"):
        assert scores[baseline] > scores["glp"], baseline


def _ranks(result):
    return {k: v for k, v in result.notes.items() if k.startswith("rank_")}


def test_t1_battery_cache_and_parallel_speedup(tmp_path, record_text):
    """Cold vs warm vs parallel T1: identical numbers, recorded speedups."""
    kwargs = dict(n=500, seeds=2)
    cache_dir = tmp_path / "cache"

    start = time.perf_counter()
    cold = run_t1(cache_dir=str(cache_dir), **kwargs)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = run_t1(cache_dir=str(cache_dir), **kwargs)
    warm_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_t1(jobs=4, cache_dir=str(tmp_path / "cache-par"), **kwargs)
    parallel_s = time.perf_counter() - start

    # Oracle: every reported score is identical in all three modes.
    assert _ranks(warm) == _ranks(cold)
    assert _ranks(parallel) == _ranks(cold)
    # Warm rerun recomputes nothing.
    assert warm.notes["cache_misses"] == 0
    assert warm.notes["cache_hits"] > 0

    warm_speedup = cold_s / warm_s
    parallel_speedup = cold_s / parallel_s
    rows = [
        ["cold serial", cold_s, 1.0],
        ["warm cache", warm_s, warm_speedup],
        ["cold jobs=4", parallel_s, parallel_speedup],
    ]
    table = format_table(
        ["mode", "seconds", "speedup"], rows,
        title=f"T1 battery wall clock (n={kwargs['n']}, seeds={kwargs['seeds']}, "
              f"{os.cpu_count()} cpus)",
    )
    print()
    print(table)
    record_text("t1_scaling.txt", table)

    # A warm cache replaces all generation+metric work with JSON reads.
    assert warm_speedup >= 5.0, warm_speedup
    # Cold parallel speedup needs actual cores to show up.
    if (os.cpu_count() or 1) >= 4:
        assert parallel_speedup >= 2.0, parallel_speedup
