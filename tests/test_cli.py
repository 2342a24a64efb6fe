"""Tests for the CLI."""

import pytest

from repro.cli import build_parser, coerce_value, main
from repro.core import RunJournal
from repro.core.transport import REPRO_TRANSPORT_ENV


class TestCoerce:
    def test_int(self):
        assert coerce_value("42") == 42

    def test_float(self):
        assert coerce_value("0.5") == 0.5

    def test_bool(self):
        assert coerce_value("true") is True
        assert coerce_value("False") is False

    def test_string_fallback(self):
        assert coerce_value("hello") == "hello"


class TestCommands:
    def test_models_lists_registry(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "glp" in out
        assert "serrano" in out

    def test_generate_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "g.txt"
        code = main(
            ["generate", "barabasi-albert", "-n", "100", "-s", "1",
             "-o", str(out_file), "--param", "m=2"]
        )
        assert code == 0
        assert out_file.exists()
        assert "100 nodes" in capsys.readouterr().out

    def test_generate_then_summarize(self, tmp_path, capsys):
        out_file = tmp_path / "g.txt"
        main(["generate", "glp", "-n", "150", "-s", "2", "-o", str(out_file)])
        capsys.readouterr()
        assert main(["summarize", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "average_degree" in out

    def test_compare_command(self, capsys):
        assert main(["compare", "barabasi-albert", "-n", "400", "-s", "3"]) == 0
        out = capsys.readouterr().out
        assert "score=" in out

    def test_bad_param_format(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "glp", "-n", "100", "-o", str(tmp_path / "x"),
                  "--param", "badformat"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_param_coercion_end_to_end(self, tmp_path, capsys):
        out_file = tmp_path / "g.txt"
        code = main(
            ["generate", "erdos-renyi-gnp", "-n", "50", "-s", "4",
             "-o", str(out_file), "--param", "p=0.1"]
        )
        assert code == 0

    def test_experiment_subcommand(self, capsys):
        code = main(["experiment", "f1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== F1" in out
        assert "fitted monthly growth rates" in out

    def test_experiment_with_params(self, capsys):
        code = main(["experiment", "a2", "--param", "n=200"])
        assert code == 0
        assert "== A2" in capsys.readouterr().out

    def test_experiment_unknown_id(self):
        with pytest.raises(SystemExit, match="F1"):
            main(["experiment", "zz"])

    def test_unknown_generator_model_exits_listing_models(self, tmp_path):
        # A typo'd model name is a clean usage error naming the registry,
        # not a raw KeyError traceback.
        with pytest.raises(SystemExit, match="glp") as excinfo:
            main(["generate", "no-such-model", "-n", "10",
                  "-o", str(tmp_path / "x.txt")])
        assert "no-such-model" in str(excinfo.value)


class TestBatteryCommand:
    def test_battery_smoke(self, capsys):
        code = main(["battery", "barabasi-albert", "-n", "300", "--seeds", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "battery vs reference map" in out
        assert "barabasi-albert" in out
        assert "battery telemetry" in out
        assert "failed units" not in out  # clean run: no failure table

    def test_battery_with_cache_and_journal(self, tmp_path, capsys):
        args = ["battery", "barabasi-albert", "-n", "300", "--seeds", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--journal", str(tmp_path / "run.jsonl")]
        assert main(args) == 0
        capsys.readouterr()
        assert (tmp_path / "run.jsonl").exists()
        # Warm re-run: every cell served from the cache.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "misses=0" in out

    def test_battery_typod_model_exits_cleanly(self):
        with pytest.raises(SystemExit, match="available models") as excinfo:
            main(["battery", "glqp", "-n", "300"])
        message = str(excinfo.value)
        assert "glqp" in message
        assert "glp" in message
        assert "serrano" in message

    def test_battery_rejects_bad_retries(self, capsys):
        with pytest.raises(ValueError):
            main(["battery", "barabasi-albert", "-n", "300",
                  "--seeds", "1", "--retries", "-2"])

    def test_environment_forces_the_shared_transport(
        self, monkeypatch, tmp_path, capsys
    ):
        journal = tmp_path / "run.jsonl"
        monkeypatch.setenv(REPRO_TRANSPORT_ENV, "shared")
        assert main(["battery", "barabasi-albert", "-n", "150", "--seeds", "1",
                     "--journal", str(journal)]) == 0
        events = RunJournal.read(journal)
        (start,) = [e for e in events if e["event"] == "battery_start"]
        assert (start["transport"], start["transport_forced"]) == ("shared", True)
        kinds = {e.get("kind") for e in events if e["event"] == "unit_start"}
        assert {"generate", "measure"} <= kinds

    def test_transport_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["battery", "barabasi-albert", "-n", "150", "--transport", "shared"])
        assert excinfo.value.code == 2


class TestObservabilityFlags:
    def test_battery_trace_and_metrics_out(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.prom"
        code = main(["battery", "barabasi-albert", "-n", "300", "--seeds", "1",
                     "--trace", str(trace), "--metrics-out", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "spans" in out
        # The exported file is a valid Chrome trace with a nesting tree.
        from repro.obs import validate_chrome_trace

        counts = validate_chrome_trace(trace)
        assert counts["spans"] > 0
        assert counts["nested"] == counts["spans"] - 1
        text = metrics.read_text()
        assert "battery_units_completed 1" in text

    def test_battery_profile_dir_prints_hotspots(self, tmp_path, capsys):
        profile_dir = tmp_path / "profiles"
        code = main(["battery", "barabasi-albert", "-n", "300", "--seeds", "1",
                     "--profile-dir", str(profile_dir)])
        assert code == 0
        assert "profile hotspots" in capsys.readouterr().out
        assert list(profile_dir.glob("*.pstats"))


class TestJournalCommand:
    @pytest.fixture
    def artifacts(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        trace = tmp_path / "trace.json"
        main(["battery", "barabasi-albert", "-n", "300", "--seeds", "1",
              "--journal", str(journal), "--trace", str(trace)])
        capsys.readouterr()
        return journal, trace

    def test_summarize_reports_the_run(self, artifacts, capsys):
        journal, _ = artifacts
        assert main(["journal", "summarize", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "overview" in out
        assert "per-model wall time" in out
        assert "barabasi-albert" in out
        assert "per-group seconds" in out

    def test_summarize_unknown_run_exits_naming_known_ids(self, artifacts):
        journal, _ = artifacts
        with pytest.raises(SystemExit, match="runs present"):
            main(["journal", "summarize", str(journal), "--run", "nope"])

    def test_tail_prints_last_events(self, artifacts, capsys):
        journal, _ = artifacts
        assert main(["journal", "tail", str(journal), "-n", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert "battery_end" in lines[-1]

    def test_spans_aggregates_a_trace(self, artifacts, capsys):
        _, trace = artifacts
        # --top wide enough that the battery span always makes the cut:
        # the CSR metric kernels keep the metric spans small, so `battery`
        # no longer ranks in the top 3 by share.
        assert main(["journal", "spans", str(trace), "--top", "8"]) == 0
        out = capsys.readouterr().out
        assert "span aggregate" in out
        assert "battery" in out

    def test_spans_rejects_non_trace_file(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text('{"nope": []}')
        with pytest.raises(SystemExit, match="traceEvents"):
            main(["journal", "spans", str(bogus)])


class TestStoreCommand:
    def test_save_grow_info_measure_load(self, tmp_path, capsys):
        store = str(tmp_path / "w.db")
        assert main([
            "store", "save", store, "--model", "plrg", "-n", "300",
            "-s", "5", "--param", "gamma=2.2", "--checkpoint-every", "100",
        ]) == 0
        assert "grew 300 nodes" in capsys.readouterr().out

        assert main(["store", "info", store]) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out and "fresh" in out

        assert main(["store", "measure", store]) == 0
        assert "giant_fraction" in capsys.readouterr().out

        exported = str(tmp_path / "out.txt")
        assert main(["store", "load", store, "-o", exported]) == 0
        assert "wrote 300 nodes" in capsys.readouterr().out

    def test_save_reuses_complete_store(self, tmp_path, capsys):
        store = str(tmp_path / "w.db")
        argv = ["store", "save", store, "--model", "plrg", "-n", "200", "-s", "1"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "reused 200 nodes" in capsys.readouterr().out

    def test_save_from_edge_list(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        edges.write_text("# node 9\n1 2\n2 3 2.5\n", encoding="utf-8")
        assert main(["store", "save", str(tmp_path / "e.db"), "--input", str(edges)]) == 0
        assert "saved 4 nodes / 2 edges" in capsys.readouterr().out

    def test_info_on_missing_store_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "info", str(tmp_path / "nope.db")])
        assert "no graph store" in str(excinfo.value)

    def test_save_needs_model_or_input(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "save", str(tmp_path / "w.db")])
        assert "--model or --input" in str(excinfo.value)

    def test_save_model_needs_nodes(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "save", str(tmp_path / "w.db"), "--model", "plrg"])
        assert "--nodes" in str(excinfo.value)

    def test_conflicting_identity_exits_cleanly(self, tmp_path):
        store = str(tmp_path / "w.db")
        base = ["store", "save", store, "--model", "plrg", "-n", "200"]
        assert main(base + ["-s", "1"]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(base + ["-s", "2"])
        assert "different identity" in str(excinfo.value)


class TestJournalMissingAndEmpty:
    def test_summarize_missing_journal_exits_with_message(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["journal", "summarize", str(tmp_path / "never.jsonl")])
        assert "journal not found" in str(excinfo.value)

    def test_tail_missing_journal_exits_with_message(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["journal", "tail", str(tmp_path / "never.jsonl")])
        assert "journal not found" in str(excinfo.value)

    def test_summarize_empty_journal_is_a_clean_no_events(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["journal", "summarize", str(empty)]) == 0
        assert "no events" in capsys.readouterr().out

    def test_tail_empty_journal_is_a_clean_no_events(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["journal", "tail", str(empty)]) == 0
        assert "no events" in capsys.readouterr().out

    def test_spans_missing_trace_exits_with_message(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["journal", "spans", str(tmp_path / "never.json")])
        assert "repro:" in str(excinfo.value)

    def test_spans_empty_trace_is_a_clean_no_spans(self, tmp_path, capsys):
        import json as _json

        trace = tmp_path / "empty-trace.json"
        trace.write_text(_json.dumps({"traceEvents": []}))
        assert main(["journal", "spans", str(trace)]) == 0
        assert "no spans" in capsys.readouterr().out


class TestPerfCommand:
    @pytest.fixture
    def records_dir(self, tmp_path):
        from repro.obs.perf import BenchRecord, environment_fingerprint

        directory = tmp_path / "records"
        env = environment_fingerprint()
        BenchRecord(
            bench_id="generators",
            values={"median_speedup": 2.5},
            wall_seconds=4.0,
            peak_rss_kb=150_000.0,
            environment=env,
        ).write(directory)
        BenchRecord(
            bench_id="resilience",
            values={"median_speedup": 4.0},
            wall_seconds=6.0,
            peak_rss_kb=160_000.0,
            environment=env,
        ).write(directory)
        return directory

    def test_record_then_compare_round_trip(self, tmp_path, records_dir, capsys):
        baseline = tmp_path / "base.json"
        assert main([
            "perf", "record", "--records", str(records_dir),
            "-o", str(baseline), "--note", "test run",
        ]) == 0
        assert "2 benches" in capsys.readouterr().out
        assert main([
            "perf", "compare", "--records", str(records_dir),
            "--baseline", str(baseline),
        ]) == 0
        out = capsys.readouterr().out
        assert "benchmarks vs baseline" in out
        assert "acceptance floors" in out
        assert "perf: ok" in out

    def test_compare_flags_injected_regression(self, tmp_path, records_dir, capsys):
        from repro.obs.perf import load_records

        baseline = tmp_path / "base.json"
        main(["perf", "record", "--records", str(records_dir), "-o", str(baseline)])
        capsys.readouterr()
        # Inject a 5x / +16s wall regression into one record.
        slow = load_records(records_dir)["generators"]
        slow.wall_seconds = 20.0
        slow.write(records_dir)
        assert main([
            "perf", "compare", "--records", str(records_dir),
            "--baseline", str(baseline),
        ]) == 1
        assert "REGRESSION generators" in capsys.readouterr().out

    def test_compare_flags_floor_violation(self, tmp_path, records_dir, capsys):
        from repro.obs.perf import load_records

        baseline = tmp_path / "base.json"
        main(["perf", "record", "--records", str(records_dir), "-o", str(baseline)])
        capsys.readouterr()
        weak = load_records(records_dir)["generators"]
        weak.values["median_speedup"] = 1.1
        weak.write(records_dir)
        assert main([
            "perf", "compare", "--records", str(records_dir),
            "--baseline", str(baseline),
        ]) == 1
        out = capsys.readouterr().out
        assert "FLOOR VIOLATION" in out
        assert "generators-median-speedup" in out

    def test_compare_without_floors(self, tmp_path, records_dir, capsys):
        baseline = tmp_path / "base.json"
        main(["perf", "record", "--records", str(records_dir), "-o", str(baseline)])
        capsys.readouterr()
        assert main([
            "perf", "compare", "--records", str(records_dir),
            "--baseline", str(baseline), "--floors", "",
        ]) == 0
        assert "acceptance floors" not in capsys.readouterr().out

    def test_report_prints_value_trajectory(self, tmp_path, records_dir, capsys):
        assert main([
            "perf", "report", "--records", str(records_dir),
            "--baseline", str(tmp_path / "absent.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "generators.median_speedup" in out
        assert "published bench values" in out

    def test_record_with_no_records_exits_with_message(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["perf", "record", "--records", str(tmp_path / "empty")])
        assert "no BENCH_" in str(excinfo.value)

    def test_compare_with_no_records_is_clean(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main([
            "perf", "compare", "--records", str(empty),
            "--baseline", str(tmp_path / "absent.json"),
        ]) == 0
        assert "no BENCH_" in capsys.readouterr().out

    def test_compare_missing_baseline_exits_cleanly(self, records_dir, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "perf", "compare", "--records", str(records_dir),
                "--baseline", str(tmp_path / "absent.json"),
            ])
        assert "repro:" in str(excinfo.value)

    def test_report_with_no_records_is_clean(self, tmp_path, capsys):
        """A fresh checkout has no BENCH records; `perf report` must say
        so helpfully and exit 0, never stack-trace (PR 10 satellite)."""
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main([
            "perf", "report", "--records", str(empty),
            "--baseline", str(tmp_path / "absent.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "nothing to report" in out
        assert "no BENCH_" in out
        assert "pytest benchmarks/" in out  # tells the user what to run

    def test_report_zero_records_names_the_directory(self, tmp_path, capsys):
        empty = tmp_path / "elsewhere"
        empty.mkdir()
        main([
            "perf", "report", "--records", str(empty),
            "--baseline", str(tmp_path / "absent.json"),
        ])
        assert str(empty) in capsys.readouterr().out


class TestServeCommand:
    def test_bench_in_process_smoke(self, tmp_path, capsys):
        # No --prime and a single (model, seed) key: the first requests
        # hit the slow cold path together, so identical requests are
        # reliably in flight at once and --require-coalesce is
        # deterministic (primed requests finish in ~3 ms and can race
        # past each other).
        assert main([
            "serve", "bench", "--jobs", "1", "--requests", "4",
            "--threads", "4", "--models", "albert-barabasi", "-n", "150",
            "--seeds", "1", "--duplicate-rounds", "1",
            "--root", str(tmp_path / "root"), "--require-coalesce",
        ]) == 0
        out = capsys.readouterr().out
        assert "serve load" in out
        assert "p99 ms" in out
        assert "coalesce_hits" in out

    def test_call_against_dead_server_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "call", "health", "--url", "http://127.0.0.1:9"])
        assert "repro:" in str(excinfo.value)

    def test_call_summarize_requires_model(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "call", "summarize", "--url", "http://127.0.0.1:9"])
        assert "--model is required" in str(excinfo.value)

    def test_call_round_trip(self, tmp_path, capsys):
        from repro.serve import ServeDispatcher, running_server

        dispatcher = ServeDispatcher(jobs=1, root=tmp_path / "root")
        try:
            with running_server(dispatcher) as url:
                assert main([
                    "serve", "call", "summarize", "--url", url,
                    "--model", "albert-barabasi", "-n", "150", "-s", "1",
                    "--groups", "size",
                ]) == 0
                out = capsys.readouterr().out
                assert '"num_nodes": 150' in out
                assert main(["serve", "call", "health", "--url", url]) == 0
                assert '"status": "ok"' in capsys.readouterr().out
        finally:
            dispatcher.shutdown()
