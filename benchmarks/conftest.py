"""Benchmark harness plumbing.

Each bench runs one experiment exactly once under pytest-benchmark timing
(rounds=1 — these are end-to-end experiment harnesses, not
microbenchmarks), asserts the experiment's expected *shape*, and writes
the rendered paper-style output to ``benchmarks/output/<id>.txt`` so the
regenerated tables/figures persist as artifacts.

Perf telemetry rides on every bench automatically: the autouse ``perf``
fixture times the test, samples peak RSS, diffs the ambient metrics
registry across the run, and writes a schema-valid
``output/BENCH_<id>.json`` record (:mod:`repro.obs.perf`) when the test
passes — so all bench harnesses gain machine-readable output without
per-script changes.  Benches publish their headline measurements into
``perf.values`` (median speedups, RSS budgets, overhead shares); the
declarative floors in ``perf_floors.json`` are then enforced here, after
the test body, instead of as ad-hoc asserts inside each script, and
re-checked fleet-wide by ``repro perf compare``.

Every ``.txt`` artifact is stamped with a provenance header (bench id,
git commit, UTC timestamp) so a table on disk is traceable to the commit
that produced it.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.obs import diff_snapshots, get_registry, peak_rss_kb
from repro.obs.perf import (
    BenchRecord,
    check_floors,
    environment_fingerprint,
    floors_for,
    load_floors,
    sanitize_bench_id,
)

OUTPUT_DIR = Path(__file__).parent / "output"
FLOORS_PATH = Path(__file__).parent / "perf_floors.json"


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def perf_floors():
    """The declarative floors, loaded once per session."""
    return load_floors(FLOORS_PATH)


@pytest.fixture(scope="session")
def bench_environment():
    """One environment fingerprint per session (git call, version probes)."""
    return environment_fingerprint(Path(__file__).parent)


def artifact_header(bench_id: str, environment) -> str:
    """The provenance line stamped onto every ``.txt`` artifact."""
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return (
        f"# bench={bench_id} commit={environment['git_commit']} "
        f"generated={stamp}"
    )


class PerfCapture:
    """What one bench test publishes into its record.

    ``values`` holds the floor-gated measurements, ``params`` free-form
    run parameters; ``bench_id`` defaults to ``<module>__<test>`` and the
    floor-bearing benches pin short explicit ids.
    """

    def __init__(self, bench_id: str):
        self.bench_id = bench_id
        self.values = {}
        self.params = {}


def _default_bench_id(request) -> str:
    module = Path(str(request.node.fspath)).stem
    if module.startswith("bench_"):
        module = module[len("bench_"):]
    name = request.node.name
    if name.startswith("test_"):
        name = name[len("test_"):]
    return sanitize_bench_id(f"{module}__{name}")


@pytest.hookimpl(tryfirst=True, hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Stash each phase's report on the item so fixture teardown can tell
    a passed bench (record it) from a failed one (don't poison records)."""
    outcome = yield
    report = outcome.get_result()
    setattr(item, f"rep_{report.when}", report)


@pytest.fixture(autouse=True)
def perf(request, output_dir, perf_floors, bench_environment):
    """Autouse telemetry bracket around every bench test.

    On a passed test: build the :class:`BenchRecord` (wall seconds, peak
    RSS, backend/engine selection, cache-counter and full metrics-registry
    deltas, environment fingerprint), write ``BENCH_<id>.json``, then
    enforce any declarative floors bound to this bench id — a violated
    floor fails the bench here, with the record already on disk for the
    post-mortem.
    """
    capture = PerfCapture(_default_bench_id(request))
    if getattr(request.node, "callspec", None) is not None:
        for key, value in request.node.callspec.params.items():
            if isinstance(value, (int, float, str, bool)):
                capture.params[key] = value
    before = get_registry().snapshot()
    start = time.perf_counter()
    yield capture
    wall = time.perf_counter() - start
    report = getattr(request.node, "rep_call", None)
    if report is None or not report.passed:
        return
    delta = diff_snapshots(get_registry().snapshot(), before)
    cache = {
        label: delta["counters"].get(counter, 0)
        for label, counter in (
            ("hits", "cache.hit"),
            ("misses", "cache.miss"),
            ("writes", "cache.write"),
            ("corrupt", "cache.corrupt"),
        )
    }
    record = BenchRecord(
        bench_id=capture.bench_id,
        params=capture.params,
        values={key: float(value) for key, value in capture.values.items()},
        wall_seconds=wall,
        peak_rss_kb=peak_rss_kb(),
        backend="csr",
        engine="vector",
        cache=cache,
        metrics=delta,
        environment=bench_environment,
    )
    record.write(output_dir)
    bound = floors_for(capture.bench_id, perf_floors)
    failures = [
        check.describe()
        for check in check_floors({capture.bench_id: record}, bound)
        if check.status == "violation"
    ]
    if failures:
        pytest.fail(
            "declarative perf floor violated:\n  " + "\n  ".join(failures),
            pytrace=False,
        )


@pytest.fixture
def record_text(output_dir, perf, bench_environment):
    """Write a text artifact to the output directory, header-stamped."""

    def _record(filename: str, text: str) -> Path:
        path = output_dir / filename
        header = artifact_header(perf.bench_id, bench_environment)
        path.write_text(
            header + "\n" + text.rstrip("\n") + "\n", encoding="utf-8"
        )
        return path

    return _record


@pytest.fixture
def record_experiment(record_text):
    """Write an ExperimentResult's rendering to the output directory."""

    def _record(result) -> str:
        text = result.render()
        record_text(f"{result.experiment_id.lower()}.txt", text)
        print()
        print(text)
        return text

    return _record


def run_once(benchmark, fn, **kwargs):
    """Run *fn* exactly once under benchmark timing and return its result."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)
