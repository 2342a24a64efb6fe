"""Tests for journal/trace analysis (the library behind ``repro journal``)."""

import pytest

from repro.obs import Tracer, export_chrome_trace
from repro.obs.analysis import (
    UNSTAMPED,
    group_runs,
    journal_summary_tables,
    load_trace_spans,
    span_aggregate,
    summarize_run,
    tail_lines,
)


def _events(run_id="abc123"):
    """A plausible little journal: one clean run with two models."""
    return [
        {"ts": 1.0, "event": "battery_start", "run_id": run_id,
         "models": ["glp", "pfp"], "n": 500, "seeds": 1, "jobs": 2},
        {"ts": 1.1, "event": "cache_hit", "run_id": run_id, "model": "glp"},
        {"ts": 2.0, "event": "unit_finish", "run_id": run_id, "model": "glp",
         "replicate": 0, "seconds": 1.5, "worker": 11, "gen_seconds": 0.5,
         "groups": {"tail": 0.8}, "max_rss_kb": 1000.0, "cpu_seconds": 1.2},
        {"ts": 2.1, "event": "unit_retry", "run_id": run_id, "model": "pfp"},
        {"ts": 3.0, "event": "unit_finish", "run_id": run_id, "model": "pfp",
         "replicate": 0, "seconds": 2.5, "worker": 12, "gen_seconds": 1.0,
         "groups": {"tail": 1.2}, "max_rss_kb": 2000.0, "cpu_seconds": 2.0},
        {"ts": 3.1, "event": "unit_fail", "run_id": run_id, "model": "pfp"},
        {"ts": 4.0, "event": "battery_end", "run_id": run_id, "elapsed": 3.0,
         "cache": {"hits": 1, "misses": 3}},
    ]


class TestGroupRuns:
    def test_partitions_by_run_id_preserving_order(self):
        events = _events("aaa") + _events("bbb")
        runs = group_runs(events)
        assert list(runs) == ["aaa", "bbb"]
        assert len(runs["aaa"]) == len(runs["bbb"]) == 7

    def test_unstamped_events_group_under_sentinel(self):
        runs = group_runs([{"event": "battery_start"}])
        assert list(runs) == [UNSTAMPED]


class TestSummarizeRun:
    def test_counts_and_aggregates(self):
        stats = summarize_run(_events())
        assert stats["units_ok"] == 2
        assert stats["units_failed"] == 1
        assert stats["retries"] == 1
        assert stats["cache_hits"] == 1
        assert stats["elapsed"] == 3.0
        assert stats["config"]["models"] == ["glp", "pfp"]

    def test_per_model_rollup(self):
        stats = summarize_run(_events())
        assert stats["models"]["glp"] == {
            "units": 1, "seconds": 1.5, "max_rss_kb": 1000.0,
            "cpu_seconds": 1.2,
        }

    def test_groups_include_generate(self):
        stats = summarize_run(_events())
        assert stats["groups"]["generate"] == 1.5  # 0.5 + 1.0
        assert stats["groups"]["tail"] == 2.0

    def test_worker_busy_and_skew(self):
        stats = summarize_run(_events())
        assert stats["workers"] == {11: 1.5, 12: 2.5}
        assert stats["skew"] == pytest.approx(2.5 / 2.0)

    def test_empty_run_has_trivial_skew(self):
        assert summarize_run([])["skew"] == 1.0


class TestJournalSummaryTables:
    def test_one_table_set_per_run(self):
        tables = journal_summary_tables(_events("aaa") + _events("bbb"))
        titles = [title for title, _, _ in tables]
        assert "run aaa: overview" in titles
        assert "run bbb: overview" in titles
        assert "run aaa: per-model wall time" in titles
        assert "run aaa: per-group seconds" in titles
        assert "run aaa: worker busy seconds" in titles

    def test_run_filter_selects_one_run(self):
        tables = journal_summary_tables(
            _events("aaa") + _events("bbb"), run_id="bbb"
        )
        assert all(title.startswith("run bbb") for title, _, _ in tables)

    def test_unknown_run_id_names_present_runs(self):
        with pytest.raises(KeyError, match="aaa"):
            journal_summary_tables(_events("aaa"), run_id="zzz")

    def test_overview_reports_cache_hit_rate(self):
        tables = journal_summary_tables(_events())
        _, _, rows = tables[0]
        fields = dict((row[0], row[1]) for row in rows)
        assert fields["cache hits"] == 1
        assert fields["cache hit rate"] == 0.25  # 1 hit / (1 hit + 3 misses)
        assert fields["units ok/failed"] == "2/1"

    def test_overview_says_how_the_run_executed(self):
        def overview(start):
            _, _, rows = journal_summary_tables([start])[0]
            fields = dict((row[0], row[1]) for row in rows)
            return fields["transport"], fields["mp_start"]

        forced = dict(
            _events()[0], transport="shared", transport_forced=True,
            mp_start="spawn",
        )
        chosen = dict(
            _events()[0], transport="regenerate", transport_forced=False,
            mp_start="inline",
        )
        served = {"event": "serve_start", "run_id": "s", "jobs": 2, "mp_start": "fork"}
        assert overview(forced) == ("shared (forced)", "spawn")
        assert overview(chosen) == ("regenerate", "inline")
        assert overview(served) == ("?", "fork")


class TestTailLines:
    def test_last_count_events_one_line_each(self):
        lines = tail_lines(_events(), count=2)
        assert len(lines) == 2
        assert "unit_fail" in lines[0]
        assert "battery_end" in lines[1]
        assert "run_id=abc123" in lines[1]

    def test_interesting_fields_inlined(self):
        (line,) = tail_lines(_events()[2:3], count=1)
        assert "model=glp" in line
        assert "seconds=1.5" in line
        assert "worker=11" in line


class TestTraceAnalysis:
    def _trace(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("battery"):
            for _ in range(3):
                with tracer.span("unit"):
                    pass
        return export_chrome_trace(tracer.spans, tmp_path / "trace.json")

    def test_load_trace_spans_round_trips_names_and_seconds(self, tmp_path):
        spans = load_trace_spans(self._trace(tmp_path))
        names = sorted(s["name"] for s in spans)
        assert names == ["battery", "unit", "unit", "unit"]
        for span in spans:
            assert span["duration"] >= 0
            assert "span_id" in span["args"]

    def test_load_trace_spans_rejects_non_trace(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"nope": 1}')
        with pytest.raises(ValueError, match="traceEvents"):
            load_trace_spans(path)

    def test_span_aggregate_orders_by_total_time(self, tmp_path):
        spans = load_trace_spans(self._trace(tmp_path))
        title, headers, rows = span_aggregate(spans)
        assert title == "span aggregate"
        assert headers[0] == "span"
        by_name = {row[0]: row for row in rows}
        assert by_name["unit"][1] == 3  # count
        # battery encloses the units, so it leads on total time.
        assert rows[0][0] == "battery"

    def test_span_aggregate_top_truncates(self, tmp_path):
        spans = load_trace_spans(self._trace(tmp_path))
        _, _, rows = span_aggregate(spans, top=1)
        assert len(rows) == 1
