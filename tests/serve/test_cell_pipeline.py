"""The service and the battery run one cell pipeline.

``ServeDispatcher`` plans, probes, generates, measures and writes through
the same public functions as ``run_battery`` (``repro.core.battery``), and
runs its units through the battery's containment loop
(``WorkerPool.run``).  These tests pin what that buys:

* served == battery in both directions over one root — a battery's cells
  and spooled topologies answer served requests, and a served generation
  is a battery's snapshot hit;
* a worker-side error fails only its own request, and an overrunning unit
  rebuilds the pool and reaps spool staging;
* the service releases every spool reference it takes, and a spool
  deleted under a running service is republished instead of attached.
"""

import shutil
import time

import pytest

from repro.core import RunJournal, registry, run_battery
from repro.core.transport import REPRO_TRANSPORT_ENV
from repro.generators.barabasi_albert import BarabasiAlbertGenerator
from repro.generators.base import TopologyGenerator
from repro.obs import get_registry
from repro.serve import ServeClient, ServeClientError, ServeDispatcher, running_server

N = 150
MODEL = "albert-barabasi"


def _counter(name):
    return get_registry().counter(name).value


def _events(journal, event, **match):
    return [
        e for e in RunJournal.read(journal)
        if e["event"] == event and all(e.get(k) == v for k, v in match.items())
    ]


class SleepyGenerator(TopologyGenerator):
    """Barabási–Albert after a sleep past any sane unit timeout."""

    name = "sleepy-serve"

    def __init__(self, seconds=2.0):
        self.seconds = seconds

    def generate(self, n, seed=None):
        time.sleep(self.seconds)
        return BarabasiAlbertGenerator(m=2).generate(n, seed=seed)


class TestServedEqualsBattery:
    def test_battery_cells_and_snapshots_answer_the_service(
        self, monkeypatch, tmp_path
    ):
        root = tmp_path / "root"
        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "shared")
        battery = run_battery(MODEL, n=N, seeds=2, cache=root / "cells")
        (entry,) = battery.entries
        dispatcher = ServeDispatcher(jobs=1, root=root, threads=1)
        try:
            for rep in (0, 1):
                spec = {"model": MODEL, "n": N, "replicate": rep}
                served = dispatcher.call("summarize", spec, timeout=300)
                assert served["seed"] == entry.seeds[rep]
                assert served["computed_groups"] == []
                assert served["generated"] == 0
                assert served["values"] == entry.summaries[rep].as_dict()
                assert dispatcher.call("generate", spec, timeout=300)["generated"] == 0
        finally:
            dispatcher.shutdown()

    def test_served_generation_is_a_battery_snapshot_hit(self, monkeypatch, tmp_path):
        root = tmp_path / "root"
        dispatcher = ServeDispatcher(jobs=1, root=root, threads=1)
        try:
            spec = {"model": MODEL, "n": N, "replicate": 0}
            assert dispatcher.call("generate", spec, timeout=300)["generated"] == 1
        finally:
            dispatcher.shutdown()
        journal = tmp_path / "battery.jsonl"
        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "shared")
        result = run_battery(MODEL, n=N, seeds=1, cache=root / "cells", journal=journal)
        assert not result.failures
        assert _events(journal, "unit_start", kind="generate") == []
        assert len(_events(journal, "snapshot_hit")) == 1
        assert [r.cached for r in result.records if r.group == "generate"] == [True]


class TestContainment:
    def test_worker_error_fails_only_its_request(self, tmp_path):
        journal = tmp_path / "serve.jsonl"
        dispatcher = ServeDispatcher(
            jobs=1, root=tmp_path / "root", threads=1, journal=journal
        )
        try:
            with running_server(dispatcher) as url:
                client = ServeClient(url)
                errors = _counter("serve.errors")
                rebuilds = dispatcher.pool.rebuilds
                # m=500 needs n >= 501: the generator raises in the worker.
                with pytest.raises(ServeClientError) as failure:
                    client.summarize("barabasi-albert", N, seed=1, params={"m": 500})
                assert failure.value.status == 500
                assert "GenerationError: n must be >= 501" in str(failure.value)
                assert _counter("serve.errors") == errors + 1
                assert dispatcher.pool.rebuilds == rebuilds
                assert client.summarize(MODEL, N, seed=1)["values"]["num_nodes"] == N
        finally:
            dispatcher.shutdown()
        (fail,) = _events(journal, "unit_fail")
        assert fail["kind"] == "generate"
        assert "n must be >= 501" in fail["error"]
        assert _events(journal, "unit_finish", kind="measure")

    def test_overrunning_unit_rebuilds_pool_and_reaps_staging(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(registry._REGISTRY, SleepyGenerator.name, SleepyGenerator)
        dispatcher = ServeDispatcher(
            jobs=1, root=tmp_path / "root", threads=1,
            unit_timeout=0.5, retries=0,
        )
        try:
            orphan = dispatcher.spool.root / "de" / "deadbeef.tmp"
            orphan.mkdir(parents=True)
            rebuilds = dispatcher.pool.rebuilds
            counted = _counter("serve.pool.rebuilds")
            with pytest.raises(RuntimeError, match="generate unit timeout"):
                dispatcher.call(
                    "summarize", {"model": SleepyGenerator.name, "n": N, "seed": 1},
                    timeout=60,
                )
            assert dispatcher.pool.rebuilds == rebuilds + 1
            assert _counter("serve.pool.rebuilds") == counted + 1
            assert not orphan.exists()
            # The rebuilt pool's first unit pays worker start-up (a whole
            # interpreter under spawn), so lift the tight timeout first.
            dispatcher.unit_timeout = None
            healthy = dispatcher.call("summarize", {"model": MODEL, "n": N, "seed": 1})
            assert healthy["values"]["num_nodes"] == N
        finally:
            dispatcher.shutdown()


class TestSpoolReferences:
    def test_deleted_spool_is_republished_not_attached(self, tmp_path):
        dispatcher = ServeDispatcher(jobs=2, root=tmp_path / "root", threads=2)
        specs = [{"model": MODEL, "n": N, "seed": seed} for seed in range(6)]
        try:
            for spec in specs:
                dispatcher.call("summarize", dict(spec, groups="size"), timeout=300)
            # Every reference the service took is released again.
            assert dispatcher.spool._handles == {}
            assert dispatcher.spool._refs == {}
            # The spool is only a cache: safe to delete wholesale.
            shutil.rmtree(dispatcher.spool.root)
            for spec in specs:
                assert dispatcher.call("generate", spec, timeout=300)["generated"] == 1
            for spec in specs:
                result = dispatcher.call(
                    "summarize", dict(spec, groups="tail,core"), timeout=300
                )
                assert result["computed_groups"] == ["core", "tail"]
                assert result["generated"] == 0
        finally:
            dispatcher.shutdown()
