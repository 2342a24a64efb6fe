"""ServeDispatcher: correctness, coalescing, caching, containment.

The serving layer's promises (ISSUE 10), each pinned by a test here:
served values are bit-identical to a direct in-process summarize on the
same inputs; a repeat request is pure cache reads with zero compute and
zero generations; identical in-flight requests coalesce onto one future;
the bounded queue sheds load as :class:`ServeBusy`; malformed requests
fail fast as :class:`ServeError` without occupying queue space; and a
service restarting over a killed predecessor's root reaps its orphaned
spool staging directories.
"""

import threading

import pytest

from repro.core import make_generator, summarize
from repro.core.battery import _identity
from repro.obs import get_registry
from repro.serve import ServeBusy, ServeDispatcher, ServeError
from repro.stats.rng import derive_seed

N = 150
MODEL = "albert-barabasi"
#: The models perfbench's serve workloads draw their keys from.
SERVE_MODELS = ("albert-barabasi", "waxman", "glp", "plrg", "brite", "serrano")


def _counter(name):
    return get_registry().counter(name).value


@pytest.fixture(scope="module")
def dispatcher(tmp_path_factory):
    """One warm module-scoped service: tests share its pool and caches
    exactly the way real traffic shares a long-running server's."""
    d = ServeDispatcher(
        jobs=1, root=tmp_path_factory.mktemp("serve-root"), threads=2
    )
    yield d
    d.shutdown()


class TestSummarizeCorrectness:
    @pytest.mark.parametrize("model", SERVE_MODELS)
    def test_values_bit_identical_to_direct_summarize(self, dispatcher, model):
        # At n=600 the paths group runs exact BFS over two 512-source
        # chunks; the service measures a spooled (memory-mapped) view.
        result = dispatcher.call("summarize", {"model": model, "n": 600, "seed": 3})
        graph = make_generator(model).generate(600, seed=3)
        direct = summarize(graph, seed=3)
        assert result["values"] == direct.as_dict()

    def test_repeat_is_pure_cache_zero_compute(self, dispatcher):
        params = {"model": MODEL, "n": N, "seed": 4}
        first = dispatcher.call("summarize", params)
        assert first["generated"] == 1
        computed_before = _counter("serve.cells.computed")
        generations_before = _counter("serve.generations.computed")
        second = dispatcher.call("summarize", params)
        assert second["values"] == first["values"]
        assert second["generated"] == 0
        assert second["computed_groups"] == []
        assert set(second["cached_groups"]) == set(second["groups"])
        assert _counter("serve.cells.computed") == computed_before
        assert _counter("serve.generations.computed") == generations_before

    def test_group_subset_reuses_full_battery_cells(self, dispatcher):
        dispatcher.call("summarize", {"model": MODEL, "n": N, "seed": 3})
        result = dispatcher.call(
            "summarize", {"model": MODEL, "n": N, "seed": 3, "groups": "size,tail"}
        )
        assert result["cached_groups"] and not result["computed_groups"]
        assert "num_nodes" in result["values"]

    def test_replicate_addresses_battery_seed(self, dispatcher):
        result = dispatcher.call(
            "summarize", {"model": MODEL, "n": N, "replicate": 2}
        )
        generator = make_generator(MODEL)
        identity, plain = _identity(generator)
        expected = derive_seed("battery-unit", identity, plain, N, 17, 2)
        assert result["seed"] == expected

    def test_generate_then_summarize_shares_the_spool(self, dispatcher):
        spec = {"model": "waxman", "n": N, "seed": 9}
        first = dispatcher.call("generate", spec)
        assert first["num_nodes"] == N
        again = dispatcher.call("generate", spec)
        assert again["generated"] == 0
        assert again["fingerprint"] == first["fingerprint"]
        summary = dispatcher.call("summarize", spec)
        assert summary["generated"] == 0  # topology came from the spool

    def test_compare_scores_against_reference(self, dispatcher):
        result = dispatcher.call("compare", {"model": MODEL, "n": N, "seed": 3})
        assert result["score"] >= 0
        assert result["rows"]
        metrics = {row["metric"] for row in result["rows"]}
        assert "average_degree" in metrics


class TestCoalescing:
    def test_identical_inflight_requests_share_one_future(self, tmp_path):
        # start=False holds the queue undrained, so identical submits are
        # guaranteed to be concurrent — no timing luck involved.
        d = ServeDispatcher(
            jobs=1, root=tmp_path / "root", start=False, prewarm=False
        )
        try:
            params = {"model": MODEL, "n": N, "seed": 5}
            hits_before = _counter("serve.coalesce.hits")
            futures = [d.submit("summarize", params) for _ in range(4)]
            assert len({id(f) for f in futures}) == 1
            assert _counter("serve.coalesce.hits") - hits_before == 3
            d.start(1)
            results = [f.result(timeout=300) for f in futures]
            assert all(r == results[0] for r in results)
            assert results[0]["generated"] == 1
        finally:
            d.shutdown()

    def test_threaded_identical_load_coalesces(self, dispatcher):
        params = {"model": MODEL, "n": N, "seed": 6}
        hits_before = _counter("serve.coalesce.hits")
        barrier = threading.Barrier(4)
        results = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            value = dispatcher.call("summarize", params)
            with lock:
                results.append(value)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 4
        assert all(r["values"] == results[0]["values"] for r in results)
        assert _counter("serve.coalesce.hits") - hits_before >= 1

    def test_distinct_requests_do_not_coalesce(self, tmp_path):
        d = ServeDispatcher(
            jobs=1, root=tmp_path / "root", start=False, prewarm=False
        )
        try:
            a = d.submit("summarize", {"model": MODEL, "n": N, "seed": 1})
            b = d.submit("summarize", {"model": MODEL, "n": N, "seed": 2})
            assert a is not b
        finally:
            d.shutdown()


class TestHitPath:
    def test_cached_summarize_is_answered_without_the_queue(self, dispatcher, tmp_path):
        spec = {"model": MODEL, "n": N, "seed": 7}
        expected = dispatcher.call("summarize", spec)
        # start=False: no thread drains this dispatcher's queue, so only an
        # answer on the submitting thread can complete the future.
        d = ServeDispatcher(
            jobs=1, root=dispatcher.root, queue_limit=1, start=False,
            prewarm=False, journal=tmp_path / "run.jsonl",
        )
        try:
            # A request with work to do takes the one slot: a full queue
            # sheds compute only.
            d.submit("summarize", {"model": MODEL, "n": N, "seed": 70})
            enqueued_before = _counter("serve.enqueued")
            future = d.submit("summarize", spec)
            assert future.done()
            result = future.result(timeout=0)
            assert result["generated"] == 0
            assert result["values"] == expected["values"]
            assert _counter("serve.enqueued") == enqueued_before
        finally:
            d.shutdown()
        (event,) = [e for e in d.journal.events() if e["event"] == "serve_request"]
        assert event["queued"] is False

    def test_queued_request_is_probed_once(self, tmp_path):
        d = ServeDispatcher(
            jobs=1, root=tmp_path / "root", threads=1,
            journal=tmp_path / "run.jsonl",
        )
        try:
            spec = {"model": MODEL, "n": N, "seed": 8}
            d.call("summarize", dict(spec, groups="size"))
            before = d.cache.stats.snapshot()
            result = d.call("summarize", dict(spec, groups="size,tail,core"))
            delta = d.cache.stats.delta(before)
            assert (delta.hits, delta.misses) == (1, 2)
            assert result["cached_groups"] == ["size"]
            assert result["computed_groups"] == ["core", "tail"]
            d.call("summarize", dict(spec, groups="size,tail,core"))
        finally:
            d.shutdown()
        events = [e for e in d.journal.events() if e["event"] == "serve_request"]
        assert [e["queued"] for e in events] == [True, True, False]


class TestLoadShedding:
    def test_queue_full_raises_serve_busy(self, tmp_path):
        d = ServeDispatcher(
            jobs=1, root=tmp_path / "root", queue_limit=1,
            start=False, prewarm=False,
        )
        try:
            d.submit("summarize", {"model": MODEL, "n": N, "seed": 1})
            rejected_before = _counter("serve.rejected")
            with pytest.raises(ServeBusy, match="queue full"):
                d.submit("summarize", {"model": MODEL, "n": N, "seed": 2})
            assert _counter("serve.rejected") - rejected_before == 1
        finally:
            d.shutdown()

    def test_rejected_request_does_not_stay_inflight(self, tmp_path):
        d = ServeDispatcher(
            jobs=1, root=tmp_path / "root", queue_limit=1,
            start=False, prewarm=False,
        )
        try:
            d.submit("summarize", {"model": MODEL, "n": N, "seed": 1})
            spec = {"model": MODEL, "n": N, "seed": 2}
            with pytest.raises(ServeBusy):
                d.submit("summarize", spec)
            # The rejected key must be gone: a later identical submit is a
            # fresh flight, not a coalesce onto a never-executed future.
            assert len(d._inflight) == 1
        finally:
            d.shutdown()


class TestValidation:
    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        """Plan validation is synchronous — no pool, no threads needed."""
        d = ServeDispatcher(
            jobs=1, root=tmp_path_factory.mktemp("cold"),
            start=False, prewarm=False,
        )
        yield d
        d.shutdown()

    def test_unknown_model(self, cold):
        with pytest.raises(ServeError, match="cannot build model"):
            cold.submit("summarize", {"model": "no-such-model", "n": N})

    def test_unknown_group(self, cold):
        with pytest.raises(ServeError, match="unknown metric group"):
            cold.submit("summarize", {"model": MODEL, "n": N, "groups": "bogus"})

    def test_missing_model(self, cold):
        with pytest.raises(ServeError, match="requires a model"):
            cold.submit("summarize", {"n": N})

    def test_bad_n(self, cold):
        with pytest.raises(ServeError, match="n >= 1"):
            cold.submit("summarize", {"model": MODEL, "n": 0})
        with pytest.raises(ServeError, match="must be an integer"):
            cold.submit("summarize", {"model": MODEL, "n": "many"})

    def test_unknown_op(self, cold):
        with pytest.raises(ServeError, match="unknown operation"):
            cold.submit("frobnicate", {})

    def test_compare_rejects_group_subset(self, cold):
        with pytest.raises(ServeError, match="full battery"):
            cold.submit("compare", {"model": MODEL, "n": N, "groups": "size"})

    def test_invalid_world_id(self, cold):
        for bad in ("", "../etc", "a/b", "x" * 65):
            with pytest.raises(ServeError, match="invalid world id"):
                cold.submit("world_info", {"world": bad})


class TestStagingReapOnRestart:
    def test_restart_reaps_killed_servers_staging(self, tmp_path):
        """Satellite of ISSUE 10: a SIGKILLed server can leave ``.tmp``
        staging dirs mid-publish; the next service start on the same root
        must reap them."""
        root = tmp_path / "service-root"
        first = ServeDispatcher(jobs=1, root=root, start=False, prewarm=False)
        assert first.reaped_at_start == 0
        spool_dir = first.spool.root
        first.shutdown()

        # Simulate the kill: orphaned staging exactly where a crashed
        # publish leaves it, with a partial payload inside.
        orphan = spool_dir / "de" / "deadbeef.tmp"
        orphan.mkdir(parents=True)
        (orphan / "partial.npy").write_bytes(b"\0" * 64)

        second = ServeDispatcher(jobs=1, root=root, start=False, prewarm=False)
        try:
            assert second.reaped_at_start == 1
            assert not orphan.exists()
            assert second.stats()["reaped_at_start"] == 1
        finally:
            second.shutdown()


class TestStats:
    def test_stats_shape(self, dispatcher):
        stats = dispatcher.stats()
        assert stats["jobs"] == 1
        assert stats["queue_limit"] == 64
        assert stats["uptime_seconds"] >= 0
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0
        assert any(k.startswith("serve.") for k in stats["counters"])
        # Counters are scoped: unrelated namespaces are filtered out.
        assert all(
            k.split(".")[0] in ("serve", "battery", "cache", "transport", "generator")
            for k in stats["counters"]
        )
