"""Cache-key and corruption-tolerance tests for the battery result cache."""

import json
import math

import pytest

from repro.core import NullCache, ResultCache, canonical_key, run_battery
from repro.core.battery import cell_payload

SUM_PARAMS = {"path_sample_threshold": 1500, "path_samples": 400, "min_tail": 50}


def _payload(**overrides):
    base = dict(
        identity="glp",
        params={"m": 1.13, "p": 0.4695, "beta": 0.6447},
        n=2000,
        seed=12345,
        group="clustering",
        sum_params=SUM_PARAMS,
    )
    base.update(overrides)
    return cell_payload(
        base["identity"], base["params"], base["n"], base["seed"],
        base["group"], base["sum_params"],
    )


class TestKeySensitivity:
    def test_key_is_stable(self):
        assert canonical_key(_payload()) == canonical_key(_payload())

    def test_generator_name_changes_key(self):
        assert canonical_key(_payload()) != canonical_key(_payload(identity="pfp"))

    def test_params_change_key(self):
        changed = _payload(params={"m": 1.14, "p": 0.4695, "beta": 0.6447})
        assert canonical_key(_payload()) != canonical_key(changed)

    def test_seed_changes_key(self):
        assert canonical_key(_payload()) != canonical_key(_payload(seed=12346))

    def test_size_changes_key(self):
        assert canonical_key(_payload()) != canonical_key(_payload(n=2001))

    def test_group_changes_key(self):
        assert canonical_key(_payload()) != canonical_key(_payload(group="paths"))

    def test_metric_version_changes_key(self):
        payload = _payload()
        bumped = dict(payload, version=payload["version"] + "-next")
        assert canonical_key(payload) != canonical_key(bumped)

    def test_param_order_does_not_change_key(self):
        a = _payload(params={"m": 1.13, "p": 0.4695})
        b = _payload(params={"p": 0.4695, "m": 1.13})
        assert canonical_key(a) == canonical_key(b)

    def test_irrelevant_sum_params_do_not_change_key(self):
        # Clustering does not depend on path sampling, so re-running with a
        # different path_samples must still hit the cached clustering cells.
        changed = dict(SUM_PARAMS, path_samples=999)
        assert canonical_key(_payload()) == canonical_key(
            _payload(sum_params=changed)
        )
        # ...but the paths group itself must miss.
        assert canonical_key(_payload(group="paths")) != canonical_key(
            _payload(group="paths", sum_params=changed)
        )


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = _payload()
        key = canonical_key(payload)
        cache.put(key, {"average_clustering": 0.25, "triangles": 12}, payload)
        assert cache.get(key, payload) == {"average_clustering": 0.25, "triangles": 12}
        assert cache.stats.hits == 1 and cache.stats.writes == 1

    def test_nan_survives_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = _payload(group="tail")
        key = canonical_key(payload)
        cache.put(key, {"degree_exponent": float("nan")}, payload)
        value = cache.get(key, payload)
        assert math.isnan(value["degree_exponent"])

    def test_float_bits_survive_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = _payload()
        key = canonical_key(payload)
        value = 0.1 + 0.2  # deliberately non-representable decimal
        cache.put(key, {"x": value}, payload)
        assert cache.get(key, payload)["x"] == value

    def test_miss_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.stats.misses == 1 and cache.stats.corrupt == 0

    def test_truncated_entry_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = _payload()
        key = canonical_key(payload)
        cache.put(key, {"triangles": 12}, payload)
        path = cache._path(key)
        path.write_text(path.read_text()[:10], encoding="utf-8")  # truncate
        assert cache.get(key, payload) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()  # corrupt entry evicted

    def test_wrong_schema_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = canonical_key(_payload())
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1

    def test_payload_mismatch_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = canonical_key(_payload())
        cache.put(key, {"triangles": 12}, _payload())
        # Same file, different claimed payload: treat as corrupt, recompute.
        assert cache.get(key, _payload(seed=999)) is None
        assert cache.stats.corrupt == 1

    def test_corrupt_entry_recomputed_end_to_end(self, tmp_path):
        fast = {"min_tail": 20, "path_samples": 50, "path_sample_threshold": 100}
        first = run_battery(["glp"], n=120, seeds=1, cache=str(tmp_path), **fast)
        # Smash every cache file, then rerun: values must match the
        # originals (recomputed), not crash and not garbage.
        files = list(tmp_path.rglob("*.json"))
        assert files
        for path in files:
            path.write_text("{corrupt", encoding="utf-8")
        # Under the shared transport the spool's snapshots sit beside the
        # cells, and the spool counts its own corrupt entries.
        spool = tmp_path / "snapshots"
        spooled = [path for path in files if spool in path.parents]
        second = run_battery(["glp"], n=120, seeds=1, cache=str(tmp_path), **fast)
        assert second.stats.corrupt == len(files) - len(spooled)
        counters = second.metrics["counters"]
        assert counters.get("transport.snapshot.corrupt", 0) == len(spooled)
        assert second.stats.hits == 0
        assert first.entries[0].summaries == second.entries[0].summaries


class TestNullCache:
    def test_never_hits(self):
        cache = NullCache()
        cache.put("k", {"v": 1})
        assert cache.get("k") is None
        assert cache.stats.misses == 1
        assert cache.stats.writes == 0


class TestCorruptEntryEviction:
    """Whatever occupies a cache entry's path, get() must degrade to a
    counted miss and clear the way for the next put()."""

    def test_binary_garbage_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = _payload()
        key = canonical_key(payload)
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\x00\xff\xfe\x00 not json")
        assert cache.get(key, payload) is None
        assert cache.stats.corrupt == 1 and cache.stats.misses == 1
        assert not path.exists()

    def test_directory_shaped_entry_is_evicted(self, tmp_path):
        # A directory at the entry path used to defeat unlink-based
        # eviction, re-counting as corrupt on every get forever.
        cache = ResultCache(tmp_path)
        key = canonical_key(_payload())
        path = cache._path(key)
        path.mkdir(parents=True)
        (path / "junk").write_text("x", encoding="utf-8")
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()
        # Next get is a clean (non-corrupt) miss, and put() works again.
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1 and cache.stats.misses == 2
        cache.put(key, {"ok": 1})
        assert cache.get(key) == {"ok": 1}
