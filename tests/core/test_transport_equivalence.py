"""Transport equivalence: shared transport must be invisible in results.

The contract mirrors the parallel runner's: the shared transport (publish
each topology once, measure groups attach) must produce bit-identical
``BatteryResult`` values to the regenerate transport (each unit rebuilds
its own graph), write byte-identical cache cells under the same keys, and
— the whole point — generate each (model, seed) topology exactly once,
which the run journal proves.  Each run forces its transport through
``REPRO_TRANSPORT``.
"""

import json

from repro.core import METRIC_GROUPS, make_generator, run_battery
from repro.core.cache import ResultCache
from repro.core.transport import REPRO_TRANSPORT_ENV

from ..generators.test_common import MODEL_PARAMS
from .test_parallel_battery import FAST, N, _assert_identical, _metric_dicts

SEEDS = 1
BASE_SEED = 29


def _registry_roster():
    """Every registered model, with the params that keep n=150 valid."""
    return {
        name: make_generator(name, **MODEL_PARAMS[name])
        for name in sorted(MODEL_PARAMS)
    }


def _events(journal_path, event=None, **match):
    out = []
    for line in journal_path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if event is not None and record.get("event") != event:
            continue
        if all(record.get(k) == v for k, v in match.items()):
            out.append(record)
    return out


class TestRegistryEquivalence:
    def test_shared_bit_identical_across_registry(self, monkeypatch):
        roster = _registry_roster()
        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "regenerate")
        oracle = run_battery(roster, n=N, seeds=SEEDS, base_seed=BASE_SEED, **FAST)
        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "shared")
        shared = run_battery(
            roster, n=N, seeds=SEEDS, base_seed=BASE_SEED, jobs=2, **FAST,
        )
        assert oracle.transport == "regenerate"
        assert shared.transport == "shared"
        assert not oracle.failures and not shared.failures
        _assert_identical(_metric_dicts(oracle), _metric_dicts(shared))


class TestCacheCellEquivalence:
    MODELS = ["barabasi-albert", "glp", "erdos-renyi-gnm"]

    @staticmethod
    def _cells(root):
        """relative path → bytes for every metric cell (snapshots excluded)."""
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in root.rglob("*.json")
            if "snapshots" not in p.relative_to(root).parts
        }

    def test_cells_byte_identical_across_transports(self, monkeypatch, tmp_path):
        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "regenerate")
        run_battery(
            self.MODELS, n=N, seeds=SEEDS, base_seed=BASE_SEED,
            cache=tmp_path / "regen", **FAST,
        )
        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "shared")
        run_battery(
            self.MODELS, n=N, seeds=SEEDS, base_seed=BASE_SEED,
            cache=tmp_path / "shared", **FAST,
        )
        regen = self._cells(tmp_path / "regen")
        shared = self._cells(tmp_path / "shared")
        assert regen and regen == shared

    def test_shared_run_fully_warm_on_regenerate_cache(self, monkeypatch, tmp_path):
        cache = ResultCache(tmp_path)
        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "regenerate")
        cold = run_battery(
            self.MODELS, n=N, seeds=SEEDS, base_seed=BASE_SEED, cache=cache, **FAST,
        )
        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "shared")
        warm = run_battery(
            self.MODELS, n=N, seeds=SEEDS, base_seed=BASE_SEED, cache=cache, **FAST,
        )
        cells = len(self.MODELS) * SEEDS * len(METRIC_GROUPS)
        assert warm.stats.hits == cells
        assert warm.stats.misses == 0
        _assert_identical(_metric_dicts(cold), _metric_dicts(warm))


class TestGenerationCounts:
    MODELS = ["barabasi-albert", "glp"]

    def test_one_generation_per_model_seed(self, monkeypatch, tmp_path):
        journal = tmp_path / "journal.jsonl"
        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "shared")
        run_battery(
            self.MODELS, n=N, seeds=2, base_seed=BASE_SEED, jobs=2,
            cache=tmp_path / "cache", journal=journal, **FAST,
        )
        starts = _events(journal, "unit_start", kind="generate")
        pairs = [(rec["model"], rec["seed"]) for rec in starts]
        assert sorted(set(pairs)) == sorted(pairs)  # no repeats
        assert len(pairs) == len(self.MODELS) * 2
        # Every metric group measured against an attached snapshot.
        measures = _events(journal, "unit_start", kind="measure")
        assert len(measures) == len(self.MODELS) * 2 * len(METRIC_GROUPS)

    def test_spool_hit_skips_regeneration(self, monkeypatch, tmp_path):
        journal = tmp_path / "journal.jsonl"
        cache = tmp_path / "cache"
        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "shared")
        run_battery(
            self.MODELS, n=N, seeds=1, base_seed=BASE_SEED,
            cache=cache, journal=journal, **FAST,
        )
        # Evict metric cells but keep snapshots: forces re-measurement
        # against the persisted spool, with zero regeneration.
        for cell in (tmp_path / "cache").rglob("*.json"):
            if "snapshots" not in cell.relative_to(cache).parts:
                cell.unlink()
        rerun = run_battery(
            self.MODELS, n=N, seeds=1, base_seed=BASE_SEED,
            cache=cache, journal=journal, **FAST,
        )
        assert not rerun.failures
        lines = journal.read_text(encoding="utf-8").splitlines()
        run_ids = [json.loads(line)["run_id"] for line in lines]
        last_run = [
            json.loads(line) for line in lines
            if json.loads(line)["run_id"] == run_ids[-1]
        ]
        gen_starts = [
            r for r in last_run
            if r["event"] == "unit_start" and r.get("kind") == "generate"
        ]
        hits = [r for r in last_run if r["event"] == "snapshot_hit"]
        assert gen_starts == []
        assert len(hits) == len(self.MODELS)
        gen_records = [
            rec for rec in rerun.records
            if rec.group == "generate" and rec.cached
        ]
        assert len(gen_records) == len(self.MODELS)
