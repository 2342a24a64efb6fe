"""Failure-injection harness for the fault-tolerant battery runner.

One crashing (or hanging, or dying) work unit must cost exactly its own
replicate: every other unit's results survive, the failure is recorded
with its traceback and seed (in ``BatteryResult.failures`` and the JSONL
journal), scoring skips the dead replicate with a warning, and — with a
cache — re-running recomputes only the failed cells.  Outcomes must stay
identical between ``jobs=1`` and ``jobs=N``.

The injected generators are module-level (picklable) and select their
victim by *seed*, because workers only ever see ``(n, seed)``; tests
compute the target replicate's derived seed with the same pure function
the runner uses.  Injection knobs live in private attributes so they stay
out of ``params()`` — the cache/seed identity must not depend on them
(that is what makes the resume test's "fixed generator" hit the broken
run's surviving cells).
"""

import math
import time
from collections import Counter

import pytest

from repro.core import (
    METRIC_GROUPS,
    PartialSummary,
    ResultCache,
    RunJournal,
    TopologySummary,
    compare_models,
    run_battery,
)
from repro.core.transport import REPRO_MP_START_ENV, REPRO_TRANSPORT_ENV
from repro.generators.barabasi_albert import BarabasiAlbertGenerator
from repro.generators.base import TopologyGenerator
from repro.stats.rng import derive_seed

from .test_parallel_battery import PARALLEL_JOBS, _assert_identical, _metric_dicts

N = 150
BASE_SEED = 21
SEEDS = 3
FAST = {"min_tail": 20, "path_samples": 50, "path_sample_threshold": 100}


class CrashingGenerator(TopologyGenerator):
    """Delegates to BA, but raises for the configured seeds."""

    name = "crashy"

    def __init__(self, fail_seeds=()):
        self.m = 2
        self._fail_seeds = frozenset(fail_seeds)
        self._delegate = BarabasiAlbertGenerator(m=2)

    def generate(self, n, seed=None):
        if seed in self._fail_seeds:
            raise RuntimeError(f"injected crash for seed {seed}")
        return self._delegate.generate(n, seed=seed)


class TimeoutRaisingGenerator(CrashingGenerator):
    """Raises the builtin ``TimeoutError`` itself (as a socket or lock
    wait inside a generator would) for the configured seeds."""

    name = "timeout-raiser"

    def generate(self, n, seed=None):
        if seed in self._fail_seeds:
            raise TimeoutError(f"injected TimeoutError for seed {seed}")
        return self._delegate.generate(n, seed=seed)


class SleepingGenerator(TopologyGenerator):
    """Delegates to BA, but sleeps past any sane timeout for the
    configured seeds."""

    name = "sleepy"

    def __init__(self, sleep_seeds=(), sleep_seconds=2.0):
        self.m = 2
        self._sleep_seeds = frozenset(sleep_seeds)
        self._sleep_seconds = sleep_seconds
        self._delegate = BarabasiAlbertGenerator(m=2)

    def generate(self, n, seed=None):
        if seed in self._sleep_seeds:
            time.sleep(self._sleep_seconds)
        return self._delegate.generate(n, seed=seed)


class FlakyOnceGenerator(TopologyGenerator):
    """Fails the first attempt per seed, succeeds on retry.

    Cross-process "have I failed yet" state lives in sentinel files under
    a temp directory passed at construction (private attr, so it stays
    out of the cache identity).
    """

    name = "flaky-once"

    def __init__(self, fail_seeds=(), state_dir=None):
        self.m = 2
        self._fail_seeds = frozenset(fail_seeds)
        self._state_dir = state_dir
        self._delegate = BarabasiAlbertGenerator(m=2)

    def generate(self, n, seed=None):
        if seed in self._fail_seeds:
            sentinel = self._state_dir / f"attempted-{seed}"
            if not sentinel.exists():
                sentinel.write_text("1")
                raise RuntimeError(f"transient injected crash for seed {seed}")
        return self._delegate.generate(n, seed=seed)


def unit_seed(identity: str, replicate: int, n: int = N, base: int = BASE_SEED) -> int:
    """The runner's derived seed for (identity, {'m': 2}) at *replicate*."""
    return derive_seed("battery-unit", identity, {"m": 2}, n, base, replicate)


def _mixed_roster(crashy):
    """3-model roster: the injected model plus two healthy ones."""
    return {"crashy": crashy, "glp": "glp", "ba": "barabasi-albert"}


def _full_summaries(result):
    return [
        (entry.model, i)
        for entry in result.entries
        for i, summary in enumerate(entry.summaries)
        if isinstance(summary, TopologySummary)
    ]


class TestCrashContainment:
    @pytest.mark.parametrize("jobs", [1, PARALLEL_JOBS])
    def test_one_crash_costs_one_unit(self, jobs):
        victim = unit_seed("crashy", 1)
        result = run_battery(
            _mixed_roster(CrashingGenerator(fail_seeds=[victim])),
            n=N, seeds=SEEDS, base_seed=BASE_SEED, jobs=jobs, **FAST,
        )
        # 3 models x 3 replicates: exactly one unit failed, 8 survived.
        assert len(_full_summaries(result)) == 8
        (failure,) = result.failures
        assert failure.model == "crashy"
        assert failure.replicate == 1
        assert failure.seed == victim
        assert failure.status == "failed"
        assert "injected crash" in failure.error
        # The dead replicate's slot is an explicit failed PartialSummary.
        summary = result.entry("crashy").summaries[1]
        assert isinstance(summary, PartialSummary)
        assert summary.failed
        assert "injected crash" in summary.error

    def test_keyboard_interrupt_is_not_contained(self):
        class Interrupting(BarabasiAlbertGenerator):
            def generate(self, n, seed=None):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_battery({"ba": Interrupting(m=2)}, n=N, seeds=1, jobs=1, **FAST)

    def test_survivors_identical_across_jobs(self):
        victim = unit_seed("crashy", 1)
        roster = _mixed_roster(CrashingGenerator(fail_seeds=[victim]))
        serial = run_battery(
            roster, n=N, seeds=SEEDS, base_seed=BASE_SEED, jobs=1, **FAST
        )
        parallel = run_battery(
            roster, n=N, seeds=SEEDS, base_seed=BASE_SEED,
            jobs=PARALLEL_JOBS, **FAST,
        )
        assert _full_summaries(serial) == _full_summaries(parallel)
        assert [(f.model, f.replicate, f.seed, f.status) for f in serial.failures] == [
            (f.model, f.replicate, f.seed, f.status) for f in parallel.failures
        ]
        # Surviving metric values are bit-identical, as for clean runs.
        drop_failed = lambda result: {
            model: [
                summary.as_dict()
                for summary in result.entry(model).summaries
                if isinstance(summary, TopologySummary)
            ]
            for model in ("crashy", "glp", "ba")
        }
        _assert_identical(drop_failed(serial), drop_failed(parallel))

    def test_scoring_skips_failed_replicates_with_warning(self):
        victim = unit_seed("crashy", 0)
        with pytest.warns(RuntimeWarning, match="crashy.*1 of 3"):
            comparison = compare_models(
                _mixed_roster(CrashingGenerator(fail_seeds=[victim])),
                n=N, seeds=SEEDS, base_seed=BASE_SEED, **FAST,
            )
        score = comparison.score("crashy")
        assert len(score.scores) == 2
        assert len(score.summaries) == 2
        assert not math.isnan(score.mean)
        # Healthy models are fully scored.
        assert len(comparison.score("glp").scores) == SEEDS
        assert len(comparison.score("ba").scores) == SEEDS

    def test_all_replicates_failed_ranks_last_with_nan_mean(self):
        victims = [unit_seed("crashy", rep) for rep in range(SEEDS)]
        with pytest.warns(RuntimeWarning):
            comparison = compare_models(
                _mixed_roster(CrashingGenerator(fail_seeds=victims)),
                n=N, seeds=SEEDS, base_seed=BASE_SEED, **FAST,
            )
        score = comparison.score("crashy")
        assert score.scores == ()
        assert math.isnan(score.mean)
        assert comparison.ranking()[-1][0] == "crashy"

    def test_failure_rows_in_render_timing(self):
        victim = unit_seed("crashy", 2)
        result = run_battery(
            _mixed_roster(CrashingGenerator(fail_seeds=[victim])),
            n=N, seeds=SEEDS, base_seed=BASE_SEED, **FAST,
        )
        rendered = result.render_timing()
        assert "failed units" in rendered
        assert "injected crash" in rendered
        headers, rows = result.failure_table()
        assert headers == ["model", "replicate", "seed", "status", "error"]
        assert rows[0][:4] == ["crashy", 2, victim, "failed"]


class TestTimeout:
    # The spawn case pins that a cold pool's worker start-up (interpreter
    # start plus imports) is never charged to the first units' timeout.
    @pytest.mark.parametrize(
        "jobs, start_method",
        [
            pytest.param(1, None, id="1"),
            pytest.param(PARALLEL_JOBS, None, id=str(PARALLEL_JOBS)),
            pytest.param(PARALLEL_JOBS, "spawn", id=f"{PARALLEL_JOBS}-spawn"),
        ],
    )
    def test_overrunning_unit_recorded_as_timeout(
        self, monkeypatch, jobs, start_method
    ):
        if start_method is not None:
            monkeypatch.setenv(REPRO_MP_START_ENV, start_method)
        victim = unit_seed("sleepy", 0)
        roster = {
            "sleepy": SleepingGenerator(sleep_seeds=[victim], sleep_seconds=2.0),
            "ba": "barabasi-albert",
        }
        result = run_battery(
            roster, n=N, seeds=2, base_seed=BASE_SEED, jobs=jobs,
            timeout=0.5, **FAST,
        )
        (failure,) = result.failures
        assert failure.model == "sleepy"
        assert failure.replicate == 0
        assert failure.status == "timeout"
        assert "timeout" in failure.error.lower()
        # The other three units all completed.
        assert len(_full_summaries(result)) == 3

    @pytest.mark.parametrize("jobs", [1, PARALLEL_JOBS])
    def test_late_overrun_is_a_timeout_at_every_jobs(self, jobs):
        # Both units start together at jobs > 1; the 2.0 s unit's result
        # arrives 1.0 s into its own wait, so only its measured seconds
        # show that it overran the 1.5 s limit.
        seed = unit_seed("sleepy", 0)
        roster = {
            "short": SleepingGenerator(sleep_seeds=[seed], sleep_seconds=1.0),
            "long": SleepingGenerator(sleep_seeds=[seed], sleep_seconds=2.0),
        }
        result = run_battery(
            roster, n=N, seeds=1, base_seed=BASE_SEED, jobs=jobs,
            timeout=1.5, **FAST,
        )
        (failure,) = result.failures
        assert failure.model == "long"
        assert failure.status == "timeout"
        assert _full_summaries(result) == [("short", 0)]

    @pytest.mark.parametrize("jobs", [1, PARALLEL_JOBS])
    def test_unit_raising_timeout_error_fails_with_its_traceback(self, jobs):
        # A TimeoutError raised by the unit is its own failure, not the
        # pool's wait running out (the two are one class on Python 3.11+).
        victim = unit_seed("timeout-raiser", 0)
        result = run_battery(
            {"timeout-raiser": TimeoutRaisingGenerator(fail_seeds=[victim])},
            n=N, seeds=2, base_seed=BASE_SEED, jobs=jobs, **FAST,
        )
        (failure,) = result.failures
        assert failure.status == "failed"
        assert "injected TimeoutError" in failure.error
        assert _full_summaries(result) == [("timeout-raiser", 1)]

    def test_generous_timeout_is_a_no_op(self):
        clean = run_battery(
            ["barabasi-albert"], n=N, seeds=1, timeout=120.0, **FAST
        )
        assert clean.failures == []
        assert isinstance(clean.entries[0].summaries[0], TopologySummary)


class TestRetries:
    @pytest.mark.parametrize("jobs", [1, PARALLEL_JOBS])
    def test_transient_failure_recovers_on_retry(self, tmp_path, jobs):
        victim = unit_seed("flaky-once", 1)
        generator = FlakyOnceGenerator(fail_seeds=[victim], state_dir=tmp_path)
        result = run_battery(
            {"flaky-once": generator, "ba": "barabasi-albert"},
            n=N, seeds=2, base_seed=BASE_SEED, jobs=jobs, retries=1, **FAST,
        )
        assert result.failures == []
        assert len(_full_summaries(result)) == 4

    def test_deterministic_failure_exhausts_retries(self, tmp_path):
        victim = unit_seed("crashy", 0)
        journal = tmp_path / "journal.jsonl"
        result = run_battery(
            {"crashy": CrashingGenerator(fail_seeds=[victim])},
            n=N, seeds=1, base_seed=BASE_SEED, retries=2,
            journal=journal, **FAST,
        )
        (failure,) = result.failures
        assert failure.status == "failed"
        events = RunJournal.read(journal)
        retries = [e for e in events if e["event"] == "unit_retry"]
        assert len(retries) == 2
        fails = [e for e in events if e["event"] == "unit_fail"]
        assert len(fails) == 1
        assert fails[0]["attempts"] == 3

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            run_battery(["barabasi-albert"], n=N, seeds=1, retries=-1, **FAST)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError):
            run_battery(["barabasi-albert"], n=N, seeds=1, timeout=0.0, **FAST)


class TestJournal:
    @pytest.mark.parametrize("jobs", [1, PARALLEL_JOBS])
    def test_journal_records_failure_with_seed_and_traceback(self, tmp_path, jobs):
        victim = unit_seed("crashy", 1)
        journal = tmp_path / "run.jsonl"
        result = run_battery(
            _mixed_roster(CrashingGenerator(fail_seeds=[victim])),
            n=N, seeds=SEEDS, base_seed=BASE_SEED, jobs=jobs,
            journal=journal, **FAST,
        )
        events = RunJournal.read(journal)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "battery_start"
        assert kinds[-1] == "battery_end"
        fails = [e for e in events if e["event"] == "unit_fail"]
        assert len(fails) == 1
        assert fails[0]["model"] == "crashy"
        assert fails[0]["seed"] == victim
        assert "injected crash" in fails[0]["error"]
        finishes = [e for e in events if e["event"] == "unit_finish"]
        # The 8 surviving replicates: one full unit each, or under the
        # shared transport one generate unit plus one measure unit per group.
        expected = (
            {"generate": 8, "measure": 8 * len(METRIC_GROUPS)}
            if result.transport == "shared"
            else {"full": 8}
        )
        assert Counter(e["kind"] for e in finishes) == expected
        assert all(e["seconds"] >= 0 for e in finishes)
        assert all("worker" in e for e in finishes)
        assert events[-1]["failures"] == 1

    def test_unit_events_identical_across_jobs(self, tmp_path):
        crashy = unit_seed("crashy", 0)
        flaky = unit_seed("flaky-once", 0)

        def unit_events(jobs):
            journal = tmp_path / f"run-{jobs}.jsonl"
            state = tmp_path / f"state-{jobs}"
            state.mkdir()
            run_battery(
                {
                    "crashy": CrashingGenerator(fail_seeds=[crashy]),
                    "flaky-once": FlakyOnceGenerator(
                        fail_seeds=[flaky], state_dir=state
                    ),
                },
                n=N, seeds=1, base_seed=BASE_SEED, jobs=jobs, retries=1,
                journal=journal, **FAST,
            )
            return [
                e for e in RunJournal.read(journal)
                if e["event"].startswith("unit_")
            ]

        finish_fields = {"attempt", "seconds", "worker", "gen_seconds", "groups"}
        shape = ("event", "model", "replicate", "seed", "kind", "attempt", "status")
        shapes = {}
        for jobs in (1, PARALLEL_JOBS):
            events = unit_events(jobs)
            for event in events:
                if event["event"] == "unit_finish":
                    assert finish_fields <= set(event), (jobs, event)
            shapes[jobs] = Counter(
                tuple(event.get(key) for key in shape) for event in events
            )
        assert shapes[1] == shapes[PARALLEL_JOBS]
        assert {shape[0] for shape in shapes[1]} == {
            "unit_start", "unit_retry", "unit_fail", "unit_finish",
        }

    def test_battery_start_says_how_the_run_executed(self, monkeypatch, tmp_path):
        journal = tmp_path / "run.jsonl"
        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "shared")
        monkeypatch.setenv(REPRO_MP_START_ENV, "spawn")
        run_battery(["barabasi-albert"], n=N, seeds=1, jobs=2, journal=journal, **FAST)
        monkeypatch.delenv(REPRO_TRANSPORT_ENV)
        run_battery(["barabasi-albert"], n=N, seeds=1, journal=journal, **FAST)
        starts = [
            (e["transport"], e["transport_forced"], e["mp_start"])
            for e in RunJournal.read(journal) if e["event"] == "battery_start"
        ]
        # n=150 is below the size rule's threshold: regenerate, not forced.
        assert starts == [("shared", True, "spawn"), ("regenerate", False, "inline")]

    def test_journal_records_cache_hits(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        cache = tmp_path / "cache"
        run_battery(["barabasi-albert"], n=N, seeds=1, cache=str(cache), **FAST)
        run_battery(
            ["barabasi-albert"], n=N, seeds=1, cache=str(cache),
            journal=journal, **FAST,
        )
        events = RunJournal.read(journal)
        hits = [e for e in events if e["event"] == "cache_hit"]
        assert len(hits) == len(METRIC_GROUPS)
        assert {e["group"] for e in hits} == set(METRIC_GROUPS)
        assert all("key" in e and "seed" in e for e in hits)


class TestResume:
    def test_rerun_recomputes_only_failed_cells(self, tmp_path):
        """The acceptance scenario: crash one unit of a 3x3 battery, then
        re-run with the crash fixed and the same cache dir — only the dead
        unit's cells (and nothing else) are recomputed."""
        victim = unit_seed("crashy", 1)
        cache = ResultCache(tmp_path)
        with pytest.warns(RuntimeWarning):
            broken = compare_models(
                _mixed_roster(CrashingGenerator(fail_seeds=[victim])),
                n=N, seeds=SEEDS, base_seed=BASE_SEED, cache=cache, **FAST,
            )
        assert len(broken.battery.failures) == 1
        surviving_cells = 8 * len(METRIC_GROUPS)
        assert broken.battery.stats.writes == surviving_cells + len(METRIC_GROUPS)

        fixed = compare_models(
            _mixed_roster(CrashingGenerator(fail_seeds=[])),
            n=N, seeds=SEEDS, base_seed=BASE_SEED, cache=cache, **FAST,
        )
        assert fixed.battery.failures == []
        # All 8 surviving units' cells and the target hit the cache...
        assert fixed.battery.stats.hits >= surviving_cells
        # ...and only the previously-failed unit is recomputed.
        assert fixed.battery.stats.misses == len(METRIC_GROUPS)
        assert len(fixed.score("crashy").scores) == SEEDS
