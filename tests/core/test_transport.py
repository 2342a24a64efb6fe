"""Zero-copy graph transport: handles, spools, contexts, containment.

The transport's contract is that sharing is invisible: an attached graph
is indistinguishable (fingerprint, node order, weights) from the one
published, the spool never repeats a generation it already holds, crashes
mid-publish never leak staging directories past a pool rebuild, and the
battery behaves identically under fork and spawn start methods.  The
property-based round trip drives the handle over the historically nasty
graph shapes: isolated nodes, mixed int/str ids, accumulated weights.
"""

import inspect
import json
import multiprocessing
import os
import shutil
import string

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import run_battery
from repro.core.metrics import TopologySummary
from repro.core.transport import (
    AUTO_SHARED_GROUPS,
    AUTO_SHARED_NODES,
    REPRO_MP_START_ENV,
    REPRO_TRANSPORT_DIR_ENV,
    REPRO_TRANSPORT_ENV,
    SnapshotSpool,
    attach_graph,
    attach_view,
    clear_attach_cache,
    publish_graph,
    resolve_mp_context,
    resolve_transport,
    unlink_shared,
)
from repro.generators.barabasi_albert import BarabasiAlbertGenerator
from repro.generators.base import TopologyGenerator
from repro.graph import Graph

FAST = {"min_tail": 20, "path_samples": 50, "path_sample_threshold": 100}

node_ids = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.text(alphabet=string.ascii_letters, min_size=1, max_size=6),
)
weights = st.integers(min_value=1, max_value=16).map(lambda q: q / 4.0)


@st.composite
def graphs(draw):
    """Graphs with isolated nodes, mixed id types, accumulated weights."""
    nodes = draw(st.lists(node_ids, min_size=1, max_size=25, unique=True))
    g = Graph(name="prop")
    g.add_nodes(nodes)
    if len(nodes) >= 2:
        edges = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(nodes), st.sampled_from(nodes), weights
                ),
                max_size=40,
            )
        )
        g.add_edges((u, v, w) for u, v, w in edges if u != v)
    return g


class TestHandleRoundTrip:
    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_spool_round_trip(self, tmp_path_factory, g):
        path = tmp_path_factory.mktemp("pub") / "graph"
        handle = publish_graph(g, path)
        try:
            clear_attach_cache()
            attached = attach_graph(handle)
            assert attached.fingerprint() == g.fingerprint()
            assert list(attached.nodes()) == list(g.nodes())
            assert attached.num_edges == g.num_edges
            norm = lambda graph: {
                frozenset((u, v)): w for u, v, w in graph.weighted_edges()
            }
            assert norm(attached) == norm(g)
        finally:
            clear_attach_cache()
            unlink_shared(handle)

    def test_handle_reports_identity_without_arrays(self, tmp_path):
        g = BarabasiAlbertGenerator(m=2).generate(80, seed=5)
        handle = publish_graph(g, tmp_path / "graph")
        assert handle.fingerprint == g.fingerprint()
        assert handle.num_nodes == 80
        assert handle.num_edges == g.num_edges
        assert handle.nbytes > 0

    def test_attach_is_cached_per_process(self, tmp_path):
        g = BarabasiAlbertGenerator(m=2).generate(60, seed=1)
        handle = publish_graph(g, tmp_path / "graph")
        clear_attach_cache()
        first = attach_graph(handle)
        assert attach_graph(handle) is first
        assert attach_view(handle) is first.csr()
        clear_attach_cache()
        assert attach_graph(handle) is not first

    def test_attached_view_is_shared_not_rebuilt(self, tmp_path):
        g = BarabasiAlbertGenerator(m=2).generate(60, seed=2)
        handle = publish_graph(g, tmp_path / "graph")
        clear_attach_cache()
        attached = attach_graph(handle)
        # The graph's CSR view must *be* the mmap-backed shared view, and
        # its fingerprint must come pre-seeded (no recompute).
        assert attached.csr() is attach_view(handle)
        assert attached.fingerprint() == handle.fingerprint

    def test_handles_pickle(self, tmp_path):
        import pickle

        g = BarabasiAlbertGenerator(m=2).generate(50, seed=3)
        handle = publish_graph(g, tmp_path / "graph")
        clone = pickle.loads(pickle.dumps(handle))
        assert clone == handle
        assert attach_graph(clone).fingerprint() == g.fingerprint()


class TestAttachCacheLRU:
    """The per-process attach cache is a bounded LRU (satellite of PR 10):
    a worker cycling through many distinct publications must hold a fixed
    number of attachments, and eviction must never invalidate a view a
    caller is still reading."""

    @pytest.fixture(autouse=True)
    def _bounded_cache(self, monkeypatch):
        from repro.core import transport

        clear_attach_cache()
        monkeypatch.setattr(transport, "_ATTACH_CACHE_SIZE", 2)
        yield
        clear_attach_cache()

    def _publish_many(self, tmp_path, count):
        handles = []
        for i in range(count):
            g = BarabasiAlbertGenerator(m=2).generate(40 + i, seed=i)
            handles.append(publish_graph(g, tmp_path / f"graph-{i}"))
        return handles

    def test_bound_evicts_under_many_fingerprints(self, tmp_path):
        from repro.core.transport import _attach_cache
        from repro.obs import get_registry

        handles = self._publish_many(tmp_path, 5)
        evicted_before = get_registry().counter("transport.attach.evicted").value
        for handle in handles:
            attach_view(handle)
        assert len(_attach_cache) == 2
        evictions = (
            get_registry().counter("transport.attach.evicted").value
            - evicted_before
        )
        assert evictions == 3

    def test_lru_order_keeps_recently_used(self, tmp_path):
        handles = self._publish_many(tmp_path, 3)
        first = attach_graph(handles[0])
        attach_graph(handles[1])
        # Touch [0] so it is most-recent; attaching [2] must evict [1].
        assert attach_graph(handles[0]) is first
        attach_graph(handles[2])
        assert attach_graph(handles[0]) is first
        assert attach_graph(handles[1]) is not None  # re-opened, not stale

    def test_eviction_does_not_invalidate_in_use_views(self, tmp_path):
        """A view handed out before its entry was evicted must keep
        reading valid data: eviction only drops the cache's reference,
        never the mapping under live readers."""
        graphs = [
            BarabasiAlbertGenerator(m=2).generate(40 + i, seed=i)
            for i in range(4)
        ]
        handles = [
            publish_graph(g, tmp_path / f"graph-{i}")
            for i, g in enumerate(graphs)
        ]
        try:
            live = attach_view(handles[0])
            expected = live.edge_arrays()[0].sum()
            for handle in handles[1:]:  # overflows the bound of 2
                attach_view(handle)
            # handles[0] has been evicted; the live view must still read.
            assert live.edge_arrays()[0].sum() == expected
            assert live.num_nodes == graphs[0].num_nodes
            # Re-attach after eviction produces a fresh, equivalent view.
            fresh = attach_view(handles[0])
            assert fresh is not live
            assert fresh.num_nodes == live.num_nodes
        finally:
            clear_attach_cache()
            for handle in handles:
                unlink_shared(handle)


class TestResolveTransport:
    def test_auto_threshold_on_n_and_groups(self, monkeypatch):
        monkeypatch.delenv(REPRO_TRANSPORT_ENV, raising=False)
        assert resolve_transport(AUTO_SHARED_NODES, AUTO_SHARED_GROUPS) == "shared"
        assert resolve_transport(AUTO_SHARED_NODES - 1, 6) == "regenerate"
        assert resolve_transport(AUTO_SHARED_NODES, AUTO_SHARED_GROUPS - 1) == "regenerate"

    def test_env_overrides_auto_but_not_explicit(self, monkeypatch):
        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "shared")
        assert resolve_transport(10, 1) == "shared"
        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "regenerate")
        assert resolve_transport(10**6, 10) == "regenerate"

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "warp")
        with pytest.raises(ValueError, match=REPRO_TRANSPORT_ENV):
            resolve_transport(10, 1)


class TestResolveMpContext:
    def test_default_is_platform_default(self, monkeypatch):
        monkeypatch.delenv(REPRO_MP_START_ENV, raising=False)
        context = resolve_mp_context()
        assert context.get_start_method() == multiprocessing.get_start_method()

    def test_env_consulted_when_unset(self, monkeypatch):
        monkeypatch.setenv(REPRO_MP_START_ENV, "spawn")
        assert resolve_mp_context().get_start_method() == "spawn"

    def test_unknown_method_rejected(self, monkeypatch):
        monkeypatch.setenv(REPRO_MP_START_ENV, "teleport")
        with pytest.raises(ValueError, match="start method"):
            resolve_mp_context()


class TestEnvironmentIsTheOnlyOverride:
    def test_no_entry_point_takes_a_transport_or_start_method(self):
        from repro.core import compare_models
        from repro.core.battery import WorkerPool, pool_for
        from repro.core.calibrate import grid_calibrate
        from repro.experiments import run_a3, run_t1, run_t5
        from repro.serve import ServeDispatcher

        entry_points = [
            run_battery, compare_models, grid_calibrate, ServeDispatcher,
            WorkerPool, pool_for, run_t1, run_a3, run_t5,
        ]
        for entry_point in entry_points:
            parameters = inspect.signature(entry_point).parameters
            assert not {"transport", "mp_context"} & set(parameters), entry_point


class TestSnapshotSpool:
    def test_probe_miss_then_hit(self, tmp_path):
        spool = SnapshotSpool(tmp_path / "spool")
        g = BarabasiAlbertGenerator(m=2).generate(60, seed=4)
        assert spool.probe("ab12") is None
        published = spool.publish(g, "ab12", name="ba")
        hit = spool.probe("ab12")
        assert hit is not None and hit.fingerprint == published.fingerprint

    def test_corrupt_snapshot_evicted_as_miss(self, tmp_path):
        spool = SnapshotSpool(tmp_path / "spool")
        path = spool.path_for("cd34")
        path.mkdir(parents=True)
        (path / "meta.json").write_text("not json", encoding="utf-8")
        assert spool.probe("cd34") is None
        assert not path.exists()

    def test_ephemeral_refcount_unlinks_at_zero(self, monkeypatch, tmp_path):
        monkeypatch.setenv(REPRO_TRANSPORT_DIR_ENV, str(tmp_path))
        spool = SnapshotSpool()
        assert str(spool.root).startswith(str(tmp_path))
        g = BarabasiAlbertGenerator(m=2).generate(60, seed=5)
        handle = spool.publish(g, "ef56")
        spool.probe("ef56")  # second reference
        spool.release("ef56")
        assert os.path.isdir(handle.location)
        spool.release("ef56")
        assert not os.path.isdir(handle.location)
        spool.cleanup()
        assert not spool.root.exists()

    def test_remembered_handle_of_deleted_snapshot_is_a_miss(self, tmp_path):
        spool = SnapshotSpool(tmp_path / "spool")
        g = BarabasiAlbertGenerator(m=2).generate(60, seed=8)
        spool.publish(g, "9f9f")  # remembered, one reference held
        shutil.rmtree(spool.root)
        assert spool.probe("9f9f") is None
        republished = spool.publish(g, "9f9f")
        assert spool.probe("9f9f").fingerprint == republished.fingerprint

    def test_persistent_spool_keeps_snapshots(self, tmp_path):
        spool = SnapshotSpool(tmp_path / "spool")
        g = BarabasiAlbertGenerator(m=2).generate(60, seed=6)
        handle = spool.publish(g, "0a0b")
        spool.release("0a0b")
        assert os.path.isdir(handle.location)
        spool.cleanup()
        assert os.path.isdir(handle.location)

    def test_reap_staging_removes_only_tmp_dirs(self, tmp_path):
        spool = SnapshotSpool(tmp_path / "spool")
        g = BarabasiAlbertGenerator(m=2).generate(60, seed=7)
        spool.publish(g, "1c1d", name="keep")
        orphan = spool.root / "9f" / "9fdead.tmp"
        orphan.mkdir(parents=True)
        (orphan / "indptr.npy").write_bytes(b"partial")
        assert spool.reap_staging() == 1
        assert not orphan.exists()
        assert spool.probe("1c1d") is not None


class DyingGenerator(TopologyGenerator):
    """Delegates to BA, but kills the worker process for configured seeds."""

    name = "deadly"

    def __init__(self, die_seeds=()):
        self.m = 2
        self._die_seeds = frozenset(die_seeds)
        self._delegate = BarabasiAlbertGenerator(m=2)

    def generate(self, n, seed=None):
        if seed in self._die_seeds:
            os._exit(13)
        return self._delegate.generate(n, seed=seed)


class TestSharedBatteryContainment:
    def test_crash_mid_battery_reaps_staging_on_pool_rebuild(
        self, monkeypatch, tmp_path
    ):
        """A worker dying mid-generation breaks the pool; the rebuild must
        reap orphaned snapshot staging directories, and the ephemeral
        transport machinery must not leak past the run."""
        from repro.stats.rng import derive_seed

        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "shared")
        deadly = DyingGenerator()
        victim = derive_seed("battery-unit", "deadly", {"m": 2}, 150, 21, 0)
        deadly._die_seeds = frozenset([victim])
        cache = tmp_path / "cache"
        # Plant an orphaned staging dir exactly where a crashed publish
        # would leave one.
        orphan = cache / "snapshots" / "zz" / "zzdead.tmp"
        orphan.mkdir(parents=True)
        (orphan / "indices.npy").write_bytes(b"partial")
        result = run_battery(
            {"deadly": deadly, "ba": BarabasiAlbertGenerator(m=2)},
            n=150, seeds=1, base_seed=21, jobs=2, cache=cache, **FAST,
        )
        assert not orphan.exists()
        assert [rec.model for rec in result.failures] == ["deadly"]
        assert isinstance(result.entry("ba").summaries[0], TopologySummary)

    def test_ephemeral_spool_removed_after_uncached_run(self, monkeypatch, tmp_path):
        monkeypatch.setenv(REPRO_TRANSPORT_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "shared")
        result = run_battery(["barabasi-albert"], n=150, seeds=1, **FAST)
        assert result.transport == "shared"
        assert not result.failures
        assert list(tmp_path.iterdir()) == []


class TestSpawnRegression:
    def test_shared_battery_identical_under_spawn(self, monkeypatch, tmp_path):
        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "shared")
        monkeypatch.setenv(REPRO_MP_START_ENV, "fork")
        fork = run_battery(["barabasi-albert"], n=150, seeds=1, jobs=2, **FAST)
        monkeypatch.setenv(REPRO_MP_START_ENV, "spawn")
        spawn = run_battery(["barabasi-albert"], n=150, seeds=1, jobs=2, **FAST)
        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "regenerate")
        serial = run_battery(["barabasi-albert"], n=150, seeds=1, **FAST)
        expected = serial.entries[0].summaries[0].as_dict()
        assert fork.entries[0].summaries[0].as_dict() == expected
        assert spawn.entries[0].summaries[0].as_dict() == expected
        assert not fork.failures and not spawn.failures

    def test_calibrate_pool_identical_under_spawn(self, monkeypatch):
        from repro.core.calibrate import grid_calibrate
        from repro.core.metrics import summarize

        target = summarize(BarabasiAlbertGenerator(m=2).generate(120, seed=3), seed=3)
        serial = grid_calibrate(
            BarabasiAlbertGenerator, {"m": [1, 2]}, target, n=100, seeds=2
        )
        monkeypatch.setenv(REPRO_MP_START_ENV, "spawn")
        spawned = grid_calibrate(
            BarabasiAlbertGenerator, {"m": [1, 2]}, target, n=100, seeds=2,
            jobs=2,
        )
        assert spawned.trials == serial.trials
        assert spawned.best_params == serial.best_params


class TestCalibrateObs:
    def test_traced_calibration_adopts_worker_spans(self):
        from repro.core.calibrate import grid_calibrate
        from repro.core.metrics import summarize
        from repro.obs.tracer import Tracer, set_tracer

        target = summarize(BarabasiAlbertGenerator(m=2).generate(120, seed=3), seed=3)
        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            grid_calibrate(
                BarabasiAlbertGenerator, {"m": [1, 2]}, target,
                n=100, seeds=2, jobs=2,
            )
        finally:
            set_tracer(previous)
        spans = tracer.drain()
        names = [span.name for span in spans]
        # One unit per (grid point, seed).
        assert names.count("unit") == 4
        calibrate_span = next(s for s in spans if s.name == "calibrate")
        units = [s for s in spans if s.name == "unit"]
        assert all(u.parent_id == calibrate_span.span_id for u in units)
        # Worker-side metric spans survive the trip home too.
        assert any(name.startswith("metric.") for name in names)
