"""Determinism/oracle harness for the parallel battery runner.

The runner's headline guarantee: results are bit-identical at any ``jobs``
value and on warm vs. cold cache.  These tests enforce it directly — the
serial run is the oracle, every other configuration must match it exactly
(no tolerances anywhere).
"""

import math
import os

import pytest

from repro.core import (
    METRIC_GROUPS,
    PartialSummary,
    ResultCache,
    compare_models,
    compare_summaries,
    run_battery,
)

#: Worker count for the parallel side of each identity check; CI's
#: contracts job sets it to 2.
PARALLEL_JOBS = int(os.environ.get("REPRO_TEST_JOBS", "4"))

MODELS = ["barabasi-albert", "glp", "erdos-renyi-gnm"]
N = 150
SEEDS = 2
FAST = {"min_tail": 20, "path_samples": 50, "path_sample_threshold": 100}


def _metric_dicts(result):
    """model → per-replicate metric dicts, for exact comparison."""
    return {
        entry.model: [summary.as_dict() for summary in entry.summaries]
        for entry in result.entries
    }


def _assert_identical(a, b):
    assert set(a) == set(b)
    for model in a:
        assert len(a[model]) == len(b[model])
        for left, right in zip(a[model], b[model]):
            assert set(left) == set(right)
            for metric in left:
                lv, rv = left[metric], right[metric]
                if isinstance(lv, float) and math.isnan(lv):
                    assert math.isnan(rv), metric
                else:
                    assert lv == rv, metric  # bit-identical, no tolerance


class TestJobsInvariance:
    def test_serial_and_parallel_identical(self):
        serial = run_battery(MODELS, n=N, seeds=SEEDS, jobs=1, **FAST)
        parallel = run_battery(MODELS, n=N, seeds=SEEDS, jobs=PARALLEL_JOBS, **FAST)
        _assert_identical(_metric_dicts(serial), _metric_dicts(parallel))

    def test_unit_seeds_do_not_depend_on_jobs(self):
        serial = run_battery(MODELS, n=N, seeds=SEEDS, jobs=1, **FAST)
        parallel = run_battery(MODELS, n=N, seeds=SEEDS, jobs=PARALLEL_JOBS, **FAST)
        assert [e.seeds for e in serial.entries] == [e.seeds for e in parallel.entries]

    def test_compare_models_scores_identical(self):
        a = compare_models(MODELS, n=N, seeds=SEEDS, jobs=1, **FAST)
        b = compare_models(MODELS, n=N, seeds=SEEDS, jobs=PARALLEL_JOBS, **FAST)
        assert [s.scores for s in a.scores] == [s.scores for s in b.scores]
        assert a.ranking() == b.ranking()


class TestWarmCache:
    def test_warm_rerun_identical_with_zero_recomputation(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_battery(MODELS, n=N, seeds=SEEDS, jobs=1, cache=cache, **FAST)
        cells = len(MODELS) * SEEDS * len(METRIC_GROUPS)
        assert cold.stats.misses == cells
        assert cold.stats.writes == cells
        assert cold.stats.hits == 0

        warm_cache = ResultCache(tmp_path)
        warm = run_battery(MODELS, n=N, seeds=SEEDS, jobs=1, cache=warm_cache, **FAST)
        assert warm_cache.stats.hits == cells
        assert warm_cache.stats.misses == 0  # zero recomputation
        assert warm_cache.stats.writes == 0
        assert all(rec.cached for rec in warm.records)
        _assert_identical(_metric_dicts(cold), _metric_dicts(warm))

    def test_warm_cache_identical_under_parallel_run(self, tmp_path):
        cold = run_battery(
            MODELS, n=N, seeds=SEEDS, jobs=PARALLEL_JOBS, cache=str(tmp_path), **FAST
        )
        warm = run_battery(
            MODELS, n=N, seeds=SEEDS, jobs=PARALLEL_JOBS, cache=str(tmp_path), **FAST
        )
        assert warm.stats.misses == 0
        _assert_identical(_metric_dicts(cold), _metric_dicts(warm))

    def test_cache_shared_across_jobs_values(self, tmp_path):
        run_battery(MODELS, n=N, seeds=SEEDS, jobs=PARALLEL_JOBS, cache=str(tmp_path), **FAST)
        warm = run_battery(MODELS, n=N, seeds=SEEDS, jobs=1, cache=str(tmp_path), **FAST)
        assert warm.stats.misses == 0

    def test_adding_replicates_reuses_existing_cells(self, tmp_path):
        run_battery(MODELS, n=N, seeds=SEEDS, jobs=1, cache=str(tmp_path), **FAST)
        grown = run_battery(MODELS, n=N, seeds=SEEDS + 1, jobs=1, cache=str(tmp_path), **FAST)
        # The first SEEDS replicates come straight from the cache...
        assert grown.stats.hits == len(MODELS) * SEEDS * len(METRIC_GROUPS)
        # ...and only the new replicate's cells are computed.
        assert grown.stats.misses == len(MODELS) * len(METRIC_GROUPS)

    def test_shared_cache_instance_reports_per_run_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = len(MODELS) * SEEDS * len(METRIC_GROUPS)
        cold = run_battery(MODELS, n=N, seeds=SEEDS, jobs=1, cache=cache, **FAST)
        warm = run_battery(MODELS, n=N, seeds=SEEDS, jobs=1, cache=cache, **FAST)
        # One cache OBJECT reused across runs: each run reports its own
        # delta, not the accumulated lifetime counters.
        assert cold.stats.misses == cells
        assert cold.stats.hits == 0
        assert warm.stats.hits == cells
        assert warm.stats.misses == 0
        assert warm.stats.writes == 0
        # The instance itself still accumulates across its lifetime.
        assert cache.stats.hits == cells
        assert cache.stats.misses == cells

    def test_shared_cache_instance_across_compare_models(self, tmp_path):
        cache = ResultCache(tmp_path)
        compare_models(MODELS, n=N, seeds=SEEDS, jobs=1, cache=cache, **FAST)
        second = compare_models(MODELS, n=N, seeds=SEEDS, jobs=1, cache=cache, **FAST)
        cells = (len(MODELS) * SEEDS + 1) * len(METRIC_GROUPS)  # +1: target
        assert second.battery.stats.hits == cells
        assert second.battery.stats.misses == 0

    def test_compare_models_warm_includes_target(self, tmp_path):
        compare_models(MODELS, n=N, seeds=SEEDS, jobs=1, cache=str(tmp_path), **FAST)
        warm = compare_models(MODELS, n=N, seeds=SEEDS, jobs=1, cache=str(tmp_path), **FAST)
        # Model cells AND the reference-map summary all come from the cache.
        assert warm.battery.stats.misses == 0


class TestBatteryShape:
    def test_partial_groups_yield_partial_summary(self):
        result = run_battery(
            ["barabasi-albert"], n=N, seeds=1, groups=["size", "clustering"], **FAST
        )
        (summary,) = result.entries[0].summaries
        # Partial batteries get an explicit PartialSummary, never None.
        assert isinstance(summary, PartialSummary)
        assert not summary.failed
        assert summary.groups == ("size", "clustering")
        assert set(summary.missing) == set(METRIC_GROUPS) - {"size", "clustering"}
        assert summary.values["num_nodes"] > 0
        by_group = {rec.group for rec in result.records}
        assert by_group == {"size", "clustering", "generate", "giant"}

    def test_partial_summary_scoring_raises_naming_missing_groups(self):
        full = run_battery(["barabasi-albert"], n=N, seeds=1, **FAST)
        partial = run_battery(
            ["barabasi-albert"], n=N, seeds=1, groups=["tail"], **FAST
        )
        (target,) = full.entries[0].summaries
        (summary,) = partial.entries[0].summaries
        with pytest.raises(ValueError, match="clustering"):
            compare_summaries(summary, target)
        with pytest.raises(ValueError, match="paths"):
            compare_summaries(target, summary)

    def test_unknown_group_rejected_upfront(self):
        with pytest.raises(KeyError, match="bogus"):
            run_battery(["barabasi-albert"], n=N, seeds=1, groups=["bogus"], **FAST)

    def test_records_cover_every_cell(self):
        result = run_battery(MODELS, n=N, seeds=SEEDS, jobs=1, **FAST)
        shared_passes = ("generate", "giant")
        metric_records = [r for r in result.records if r.group not in shared_passes]
        assert len(metric_records) == len(MODELS) * SEEDS * len(METRIC_GROUPS)
        assert result.stats.misses == len(metric_records)  # NullCache: all miss
        assert result.failures == []

    def test_jobs1_runs_generators_that_cannot_pickle(self):
        # jobs=1 runs each unit in this process and pickles nothing.
        from repro.generators.barabasi_albert import BarabasiAlbertGenerator

        class LocalGenerator(BarabasiAlbertGenerator):
            pass

        local = run_battery({"ba": LocalGenerator(m=2)}, n=N, seeds=1, **FAST)
        plain = run_battery({"ba": BarabasiAlbertGenerator(m=2)}, n=N, seeds=1, **FAST)
        assert local.failures == []
        _assert_identical(_metric_dicts(local), _metric_dicts(plain))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            run_battery(["glp", "glp"], n=N, seeds=1, **FAST)

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_battery(MODELS, n=N, seeds=1, jobs=0, **FAST)
