"""Command-line interface.

The subcommands cover the common workflows::

    repro models                           # list registered generators
    repro generate glp -n 3000 -o g.txt    # write an edge list
    repro summarize g.txt                  # metric battery on a file
    repro compare glp --n 2000 --seed 7    # model vs reference map
    repro battery glp pfp serrano -n 2000 --jobs 4 --cache-dir ~/.repro-cache
    repro journal summarize run.jsonl      # per-run report from a journal

Parameters for ``generate``/``compare`` are passed as ``--param key=value``
pairs and coerced to int/float/bool when they look like one.  ``battery``
and ``experiment`` accept ``--jobs N`` (process-parallel work units),
``--cache-dir PATH`` (content-addressed result reuse across runs),
``--no-cache``, and the fault-tolerance knobs ``--timeout SECONDS``
(per-unit limit), ``--retries N`` (re-attempts before a unit is declared
dead) and ``--journal PATH`` (append-only JSONL event log); results are
bit-identical for every combination, and a failed unit costs only its own
replicate.

Observability rides on the same two subcommands: ``--trace out.json``
records a Chrome trace-event file of the run's span tree (open it in
Perfetto), ``--metrics-out metrics.prom`` dumps the run's counters and
timers in Prometheus text format, and ``--profile-dir DIR`` cProfiles
each work unit and prints a merged hotspot table.  ``repro journal``
turns the artifacts back into reports: ``summarize`` (per-run wall time,
skew, cache efficiency), ``tail`` (last events, one line each) and
``spans`` (aggregate a trace file by span name).

``repro perf`` closes the loop on the benchmark suite's machine-readable
records (``benchmarks/output/BENCH_<id>.json``): ``record`` rolls a
record set into a committed baseline file, ``compare`` checks the
current records against that baseline (noise-tolerant wall/RSS
thresholds) and against the declarative acceptance floors in
``benchmarks/perf_floors.json``, and ``report`` prints the trajectory of
every bench-published value next to its baseline counterpart.

``repro serve`` is the long-running serving layer (see
``docs/serving.md``): ``run`` starts the warm-pool HTTP service,
``call`` issues one request against a running service, and ``bench``
replays heavy-tailed synthetic traffic and prints p50/p99 latency,
throughput, and coalescing/generation evidence.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from .core.battery import compare_models
from .core.compare import compare_graphs
from .core.metrics import summarize
from .core.registry import available_models, make_generator
from .core.report import format_table
from .datasets.asmap import reference_as_map
from .graph.io import read_edge_list, write_edge_list
from .obs import (
    MetricsRegistry,
    Tracer,
    export_chrome_trace,
    merge_profiles,
    render_prometheus,
    set_registry,
    set_tracer,
    validate_chrome_trace,
)

__all__ = ["main", "build_parser", "coerce_value"]


def coerce_value(text: str) -> Any:
    """Best-effort str → int/float/bool conversion for --param values."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_params(pairs: Optional[List[str]]) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        params[key] = coerce_value(value)
    return params


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="internet topology modeling toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list registered generator names")

    gen = sub.add_parser("generate", help="generate a topology to an edge list")
    gen.add_argument("model", help="registry name, e.g. glp")
    gen.add_argument("-n", "--nodes", type=int, required=True)
    gen.add_argument("-s", "--seed", type=int, default=None)
    gen.add_argument("-o", "--output", required=True, help="edge-list path")
    gen.add_argument("--param", action="append", metavar="KEY=VALUE")

    summ = sub.add_parser("summarize", help="metric battery on an edge-list file")
    summ.add_argument("path", help="edge-list file")

    cmp_cmd = sub.add_parser("compare", help="model vs reference AS map")
    cmp_cmd.add_argument("model", help="registry name")
    cmp_cmd.add_argument("-n", "--nodes", type=int, default=3000)
    cmp_cmd.add_argument("-s", "--seed", type=int, default=1)
    cmp_cmd.add_argument("--param", action="append", metavar="KEY=VALUE")

    battery = sub.add_parser(
        "battery",
        help="parallel, cached metric battery: many models vs reference map",
    )
    battery.add_argument(
        "models", nargs="*",
        help="model names (default: the standard comparison roster)",
    )
    battery.add_argument("-n", "--nodes", type=int, default=2000)
    battery.add_argument("--seeds", type=int, default=3)
    battery.add_argument("--base-seed", type=int, default=21)
    _add_battery_flags(battery)

    exp = sub.add_parser("experiment", help="run one experiment harness (F1..F9, T1..T5)")
    exp.add_argument("experiment_id", help="e.g. f2 or T1")
    exp.add_argument("--param", action="append", metavar="KEY=VALUE",
                     help="keyword overrides for the run_* function, e.g. n=1000")
    _add_battery_flags(exp)

    store = sub.add_parser(
        "store", help="disk-backed graph stores (SQLite + mmap CSR snapshot)"
    )
    ssub = store.add_subparsers(dest="store_command", required=True)
    ssave = ssub.add_parser(
        "save", help="grow a model (or ingest an edge list) into a store"
    )
    ssave.add_argument("path", help="store path (SQLite file; snapshot beside it)")
    ssave.add_argument(
        "--model", default=None, help="registry name to grow, e.g. plrg"
    )
    ssave.add_argument(
        "--input", default=None, metavar="EDGELIST",
        help="ingest an existing edge-list file instead of growing a model",
    )
    ssave.add_argument("-n", "--nodes", type=int, default=None)
    ssave.add_argument("-s", "--seed", type=int, default=None)
    ssave.add_argument("--param", action="append", metavar="KEY=VALUE")
    ssave.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="K",
        help="flush every K nodes in its own transaction (resumable growth)",
    )
    ssave.add_argument(
        "--no-snapshot", action="store_true",
        help="skip writing the sidecar mmap CSR snapshot",
    )
    sload = ssub.add_parser("load", help="export a store back to an edge list")
    sload.add_argument("path", help="store path")
    sload.add_argument("-o", "--output", required=True, help="edge-list path")
    sinfo = ssub.add_parser("info", help="store summary (counts, snapshot state)")
    sinfo.add_argument("path", help="store path")
    smeasure = ssub.add_parser(
        "measure", help="size metric group from the mmap CSR view alone"
    )
    smeasure.add_argument("path", help="store path")

    journal = sub.add_parser(
        "journal", help="reports from run journals and trace files"
    )
    jsub = journal.add_subparsers(dest="journal_command", required=True)
    jsum = jsub.add_parser(
        "summarize", help="per-run wall time / skew / cache report"
    )
    jsum.add_argument("path", help="JSONL run journal")
    jsum.add_argument(
        "--run", default="", metavar="RUN_ID",
        help="report only this run id (default: every run in the journal)",
    )
    jtail = jsub.add_parser("tail", help="last journal events, one line each")
    jtail.add_argument("path", help="JSONL run journal")
    jtail.add_argument("-n", "--count", type=int, default=20)
    jspans = jsub.add_parser(
        "spans", help="aggregate a Chrome trace file by span name"
    )
    jspans.add_argument("path", help="trace file written by --trace")
    jspans.add_argument(
        "--top", type=int, default=0,
        help="only the N heaviest span names (default: all)",
    )

    perf = sub.add_parser(
        "perf",
        help="benchmark telemetry: records, baselines, regression gates",
    )
    psub = perf.add_subparsers(dest="perf_command", required=True)

    def _records_flag(sub_parser):
        sub_parser.add_argument(
            "--records", default="benchmarks/output", metavar="DIR",
            help="directory holding BENCH_<id>.json records "
            "(default: benchmarks/output)",
        )

    precord = psub.add_parser(
        "record", help="roll the current BENCH records into a baseline file"
    )
    _records_flag(precord)
    precord.add_argument(
        "-o", "--output", default="benchmarks/perf_baseline.json",
        help="baseline file to write (default: benchmarks/perf_baseline.json)",
    )
    precord.add_argument(
        "--note", default="", help="free-form provenance note for the baseline"
    )
    pcompare = psub.add_parser(
        "compare",
        help="current records vs committed baseline + declarative floors",
    )
    _records_flag(pcompare)
    pcompare.add_argument(
        "--baseline", default="benchmarks/perf_baseline.json",
        help="committed baseline file (default: benchmarks/perf_baseline.json)",
    )
    pcompare.add_argument(
        "--floors", default="benchmarks/perf_floors.json",
        help="declarative acceptance-floor file; pass an empty string to "
        "skip floor checks (default: benchmarks/perf_floors.json)",
    )
    pcompare.add_argument(
        "--wall-tolerance", type=float, default=None, metavar="RATIO",
        help="wall-clock regression ratio (default 2.0; a regression must "
        "also exceed the absolute slack)",
    )
    pcompare.add_argument(
        "--rss-tolerance", type=float, default=None, metavar="RATIO",
        help="peak-RSS regression ratio (default 1.5; a regression must "
        "also exceed the absolute slack)",
    )
    preport = psub.add_parser(
        "report", help="trajectory of published bench values vs baseline"
    )
    _records_flag(preport)
    preport.add_argument(
        "--baseline", default="benchmarks/perf_baseline.json",
        help="baseline for the comparison column (skipped when missing)",
    )

    serve = sub.add_parser(
        "serve",
        help="topology-as-a-service: warm-pool HTTP serving layer",
    )
    vsub = serve.add_subparsers(dest="serve_command", required=True)

    def _serve_flags(sub_parser):
        sub_parser.add_argument(
            "--jobs", type=int, default=2,
            help="warm worker-pool size (processes, spawned once)",
        )
        sub_parser.add_argument(
            "--root", default=None, metavar="DIR",
            help="service state directory (result cells, snapshot spool, "
            "named worlds); a private temp dir when omitted",
        )
        sub_parser.add_argument(
            "--queue-limit", type=int, default=64,
            help="bounded job-queue depth; excess load gets HTTP 503",
        )
        sub_parser.add_argument("--journal", default=None, metavar="PATH",
                                help="append a JSONL service journal")
        sub_parser.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="per-unit timeout on the worker pool",
        )

    srun = vsub.add_parser("run", help="run the HTTP service until interrupted")
    srun.add_argument("--host", default="127.0.0.1")
    srun.add_argument("--port", type=int, default=8321)
    _serve_flags(srun)

    scall = vsub.add_parser(
        "call", help="one request against a running service"
    )
    scall.add_argument(
        "op",
        choices=(
            "health", "stats", "summarize", "generate", "compare", "worlds"
        ),
    )
    scall.add_argument("--url", default="http://127.0.0.1:8321")
    scall.add_argument("--model", default=None)
    scall.add_argument("-n", "--nodes", type=int, default=1000)
    scall.add_argument("-s", "--seed", type=int, default=0)
    scall.add_argument("--param", action="append", metavar="KEY=VALUE")
    scall.add_argument(
        "--groups", default=None,
        help="comma-separated metric groups (default: the full battery)",
    )

    sbench = vsub.add_parser(
        "bench",
        help="p50/p99 load harness (in-process server unless --url)",
    )
    sbench.add_argument(
        "--url", default=None,
        help="target an already-running service instead of an in-process one",
    )
    sbench.add_argument("--requests", type=int, default=100)
    sbench.add_argument("--threads", type=int, default=8)
    sbench.add_argument(
        "--models", default="albert-barabasi,waxman",
        help="comma-separated model names for the synthetic traffic",
    )
    sbench.add_argument("-n", "--nodes", type=int, default=400)
    sbench.add_argument("--seeds", type=int, default=2)
    sbench.add_argument(
        "--compare-every", type=int, default=0, metavar="K",
        help="every K-th request is a full-battery compare (0 = never)",
    )
    sbench.add_argument("--duplicate-rounds", type=int, default=3)
    sbench.add_argument(
        "--prime", action="store_true",
        help="touch every (model, seed) key once before timing (warm path)",
    )
    sbench.add_argument(
        "--require-coalesce", action="store_true",
        help="exit 1 unless at least one request was coalesced",
    )
    _serve_flags(sbench)

    return parser


def _add_battery_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared parallelism/caching flags to a subcommand."""
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for battery work units (default 1)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="content-addressed result cache directory (reused across runs)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even if --cache-dir is given",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-unit wall-clock limit; overruns become recorded failures",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-attempts for a failed/timed-out unit before giving up",
    )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append a JSONL run journal (one event per unit/cache hit)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome trace-event JSON of the run's span tree",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metrics in Prometheus text format",
    )
    parser.add_argument(
        "--profile-dir", default=None, metavar="DIR",
        help="cProfile every work unit into DIR and print merged hotspots",
    )


def _obs_setup(args):
    """Install fresh ambient tracer/registry per the --trace/--metrics-out
    flags; returns an opaque state tuple for :func:`_obs_teardown`."""
    tracer = previous_tracer = None
    registry = previous_registry = None
    if getattr(args, "trace", None):
        tracer = Tracer(enabled=True)
        previous_tracer = set_tracer(tracer)
    if getattr(args, "metrics_out", None):
        registry = MetricsRegistry()
        previous_registry = set_registry(registry)
    return tracer, registry, previous_tracer, previous_registry


def _obs_teardown(args, state) -> None:
    """Export the artifacts the flags asked for, print where they went, and
    restore the ambient tracer/registry that preceded the command."""
    tracer, registry, previous_tracer, previous_registry = state
    if tracer is not None:
        set_tracer(previous_tracer)
        path = export_chrome_trace(tracer.spans, args.trace)
        counts = validate_chrome_trace(path)
        print(f"trace: {counts['spans']} spans ({counts['nested']} nested) -> {path}")
    if registry is not None:
        set_registry(previous_registry)
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(render_prometheus(registry))
        print(f"metrics: wrote {args.metrics_out}")
    profile_dir = getattr(args, "profile_dir", None)
    if profile_dir:
        headers, rows = merge_profiles(profile_dir)
        if rows:
            print()
            print(format_table(
                headers, rows, title="profile hotspots (by cumulative time)"
            ))


def _cache_from_args(args) -> Optional[str]:
    """--cache-dir unless --no-cache wins; None means no caching."""
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None)


def _make_generator_or_exit(name: str, **params):
    """Instantiate a registered model, exiting cleanly on a bad name.

    A typo'd model name is a usage error, not an internal one: it becomes
    a ``SystemExit`` message listing :func:`available_models`, never a raw
    ``KeyError`` traceback.
    """
    try:
        return make_generator(name, **params)
    except KeyError:
        known = ", ".join(available_models())
        raise SystemExit(
            f"repro: unknown model {name!r}; available models: {known}"
        ) from None


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "models":
        for name in available_models():
            print(name)
        return 0
    if args.command == "generate":
        generator = _make_generator_or_exit(args.model, **_parse_params(args.param))
        graph = generator.generate(args.nodes, seed=args.seed)
        write_edge_list(graph, args.output)
        print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges to {args.output}")
        return 0
    if args.command == "summarize":
        graph = read_edge_list(args.path)
        summary = summarize(graph)
        rows = sorted(summary.as_dict().items())
        print(format_table(["metric", "value"], rows, title=summary.name))
        return 0
    if args.command == "compare":
        generator = _make_generator_or_exit(args.model, **_parse_params(args.param))
        graph = generator.generate(args.nodes, seed=args.seed)
        result = compare_graphs(graph, reference_as_map(args.nodes), seed=args.seed)
        print(result)
        return 0
    if args.command == "battery":
        from .experiments.rosters import ROSTER_ORDER, standard_roster

        roster = standard_roster(args.nodes)
        names = args.models or ROSTER_ORDER
        mapping = {}
        for name in names:
            # Roster names carry the calibrated parameters; anything else
            # falls back to registry defaults.
            mapping[name] = (
                roster[name] if name in roster else _make_generator_or_exit(name)
            )
        obs_state = _obs_setup(args)
        result = compare_models(
            mapping,
            n=args.nodes,
            seeds=args.seeds,
            base_seed=args.base_seed,
            jobs=args.jobs,
            cache=_cache_from_args(args),
            timeout=args.timeout,
            retries=args.retries,
            journal=args.journal,
            profile_dir=args.profile_dir,
        )
        rows = [[model, mean] for model, mean in result.ranking()]
        spreads = {score.model: score.spread for score in result.scores}
        for row in rows:
            row.append(spreads[row[0]])
        print(format_table(
            ["model", "score", "spread"], rows,
            title=f"battery vs reference map (n={args.nodes}, seeds={args.seeds})",
        ))
        print()
        print(result.battery.render_timing())
        _obs_teardown(args, obs_state)
        return 0
    if args.command == "experiment":
        from . import experiments

        run_name = f"run_{args.experiment_id.lower()}"
        runner = getattr(experiments, run_name, None)
        if runner is None:
            known = sorted(
                name[4:].upper()
                for name in dir(experiments)
                if name.startswith("run_")
            )
            raise SystemExit(
                f"unknown experiment {args.experiment_id!r}; known: {', '.join(known)}"
            )
        params = _parse_params(args.param)
        # Thread the shared battery flags through to harnesses that take
        # them (T1, T5, A3); other experiments just ignore the flags.
        accepted = inspect.signature(runner).parameters
        if "jobs" in accepted and args.jobs != 1:
            params.setdefault("jobs", args.jobs)
        if "cache_dir" in accepted and _cache_from_args(args) is not None:
            params.setdefault("cache_dir", _cache_from_args(args))
        if "timeout" in accepted and args.timeout is not None:
            params.setdefault("timeout", args.timeout)
        if "retries" in accepted and args.retries:
            params.setdefault("retries", args.retries)
        if "journal" in accepted and args.journal is not None:
            params.setdefault("journal", args.journal)
        if "profile_dir" in accepted and args.profile_dir is not None:
            params.setdefault("profile_dir", args.profile_dir)
        obs_state = _obs_setup(args)
        result = runner(**params)
        print(result.render())
        _obs_teardown(args, obs_state)
        return 0
    if args.command == "store":
        return _store_command(args)
    if args.command == "journal":
        return _journal_command(args)
    if args.command == "perf":
        return _perf_command(args)
    if args.command == "serve":
        return _serve_command(args)
    raise SystemExit(f"unknown command {args.command!r}")


def _serve_dispatcher(args):
    from .serve import ServeDispatcher

    return ServeDispatcher(
        jobs=args.jobs,
        root=args.root,
        queue_limit=args.queue_limit,
        journal=args.journal,
        unit_timeout=args.timeout,
    )


def _serve_command(args) -> int:
    """Dispatch ``repro serve run|call|bench``."""
    import json

    if args.serve_command == "run":
        from .serve import TopologyServer

        dispatcher = _serve_dispatcher(args)
        server = TopologyServer(dispatcher, host=args.host, port=args.port)
        print(
            f"serving on {server.url} (jobs={args.jobs}, "
            f"root={dispatcher.root}); Ctrl-C to stop"
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            server.server_close()
            dispatcher.shutdown()
        return 0

    if args.serve_command == "call":
        from .serve import ServeClient, ServeClientError

        client = ServeClient(args.url)
        try:
            if args.op == "health":
                result = client.health()
            elif args.op == "stats":
                result = client.stats()
            elif args.op == "worlds":
                result = client.worlds()
            else:
                if not args.model:
                    raise SystemExit(f"repro serve call {args.op}: --model is required")
                kwargs = {"params": _parse_params(args.param) or None}
                if args.op == "summarize" and args.groups:
                    kwargs["groups"] = args.groups.split(",")
                method = getattr(client, args.op)
                result = method(args.model, args.nodes, seed=args.seed, **kwargs)
        except ServeClientError as exc:
            raise SystemExit(f"repro: {exc}") from None
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0

    if args.serve_command == "bench":
        from contextlib import ExitStack

        from .serve import ServeClient, run_load, running_server

        models = [name for name in args.models.split(",") if name]
        with ExitStack() as stack:
            if args.url:
                url = args.url
            else:
                dispatcher = _serve_dispatcher(args)
                stack.callback(dispatcher.shutdown)
                url = stack.enter_context(running_server(dispatcher))
            client = ServeClient(url)
            if args.prime:
                for model in models:
                    for seed in range(args.seeds):
                        client.summarize(model, args.nodes, seed=seed)
            report = run_load(
                client,
                requests=args.requests,
                threads=args.threads,
                models=models,
                n=args.nodes,
                seeds=args.seeds,
                compare_every=args.compare_every,
                duplicate_rounds=args.duplicate_rounds,
            )
        print(report.table())
        if args.require_coalesce and report.coalesce_hits < 1:
            print("repro: expected at least one coalesced request, saw none")
            return 1
        return 0

    raise SystemExit(f"unknown serve command {args.serve_command!r}")


def _store_command(args) -> int:
    """Dispatch ``repro store save|load|info|measure``."""
    from .store import GraphStore, StoreError

    if args.store_command == "save":
        if bool(args.model) == bool(args.input):
            raise SystemExit(
                "repro store save: give exactly one of --model or --input"
            )
        if args.model:
            if args.nodes is None:
                raise SystemExit("repro store save: --model requires -n/--nodes")
            generator = _make_generator_or_exit(
                args.model, **_parse_params(args.param)
            )
            try:
                report = generator.generate_to_store(
                    args.nodes,
                    args.path,
                    seed=args.seed,
                    checkpoint_every=args.checkpoint_every,
                    snapshot=not args.no_snapshot,
                )
            except StoreError as exc:
                raise SystemExit(f"repro: {exc}") from None
            action = "grew" if report.regenerated else "reused"
            print(
                f"{action} {report.num_nodes} nodes / {report.num_edges} edges "
                f"-> {report.path} ({report.chunks_written} chunks written, "
                f"{report.chunks_resumed} resumed, {report.seconds:.2f}s)"
            )
            return 0
        from .graph.io import read_edge_list as _read

        graph = _read(args.input)
        try:
            info = GraphStore(args.path).save(
                graph,
                checkpoint_every=args.checkpoint_every,
                snapshot=not args.no_snapshot,
            )
        except StoreError as exc:
            raise SystemExit(f"repro: {exc}") from None
        print(
            f"saved {info['num_nodes']} nodes / {info['num_edges']} edges "
            f"-> {args.path} (snapshot: {info['snapshot']})"
        )
        return 0
    try:
        store = GraphStore.open(args.path)
        if args.store_command == "load":
            graph = store.load()
            write_edge_list(graph, args.output)
            print(
                f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges "
                f"to {args.output}"
            )
            return 0
        if args.store_command == "info":
            rows = sorted(store.info().items())
            print(format_table(["field", "value"], rows, title=str(store.path)))
            return 0
        if args.store_command == "measure":
            rows = sorted(store.measure().items())
            print(format_table(
                ["metric", "value"], rows, title=f"{store.path} (size group)"
            ))
            return 0
    except StoreError as exc:
        raise SystemExit(f"repro: {exc}") from None
    raise SystemExit(f"unknown store command {args.store_command!r}")


def _journal_command(args) -> int:
    """Dispatch ``repro journal summarize|tail|spans``.

    A missing or empty artifact is an everyday state (the run hasn't
    happened yet, or logged nothing), so both exit cleanly with a
    one-line message — never a traceback.
    """
    from .core.journal import RunJournal
    from .obs.analysis import (
        journal_summary_tables,
        load_trace_spans,
        span_aggregate,
        tail_lines,
    )

    if args.journal_command in ("summarize", "tail"):
        if not Path(args.path).exists():
            raise SystemExit(f"repro: journal not found: {args.path}")
        events = RunJournal.read(args.path)
        if not events:
            print(f"journal {args.path}: no events")
            return 0
    if args.journal_command == "summarize":
        try:
            tables = journal_summary_tables(events, run_id=args.run)
        except KeyError as exc:
            raise SystemExit(f"repro: {exc.args[0]}") from None
        for position, (title, headers, rows) in enumerate(tables):
            if position:
                print()
            print(format_table(headers, rows, title=title))
        return 0
    if args.journal_command == "tail":
        for line in tail_lines(events, count=args.count):
            print(line)
        return 0
    if args.journal_command == "spans":
        try:
            spans = load_trace_spans(args.path)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro: {exc}") from None
        if not spans:
            print(f"trace {args.path}: no spans")
            return 0
        title, headers, rows = span_aggregate(spans, top=args.top)
        print(format_table(headers, rows, title=title))
        return 0
    raise SystemExit(f"unknown journal command {args.journal_command!r}")


def _perf_command(args) -> int:
    """Dispatch ``repro perf record|compare|report``.

    ``compare`` exits 1 when anything regressed past the noise-tolerant
    thresholds or an acceptance floor was violated — the shape a CI gate
    needs — and 0 otherwise, including for new benches with no baseline
    entry yet.
    """
    import json

    from .obs.perf import (
        build_baseline,
        compare_records,
        comparison_tables,
        load_baseline,
        load_floors,
        load_records,
        trajectory_table,
    )

    try:
        records = load_records(args.records)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro: {exc}") from None
    if not records:
        # Zero records is an everyday state (fresh clone, cleaned output
        # dir), matching the journal-CLI convention: a friendly one-liner
        # and exit 0 for the read-only commands, never an empty table.
        message = (
            f"no BENCH_*.json records under {args.records} — run the "
            f"benchmark suite (pytest benchmarks/) to produce some"
        )
        if args.perf_command == "record":
            raise SystemExit(f"repro: {message}")
        print(f"nothing to {args.perf_command}: {message}")
        return 0

    if args.perf_command == "record":
        baseline = build_baseline(records, note=args.note)
        Path(args.output).write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"baseline: {len(records)} benches -> {args.output}")
        return 0
    if args.perf_command == "compare":
        try:
            baseline = load_baseline(args.baseline)
            floors = load_floors(args.floors) if args.floors else {}
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro: {exc}") from None
        overrides = {}
        if args.wall_tolerance is not None:
            overrides["wall_tolerance"] = args.wall_tolerance
        if args.rss_tolerance is not None:
            overrides["rss_tolerance"] = args.rss_tolerance
        comparison = compare_records(records, baseline, floors, **overrides)
        for position, (title, headers, rows) in enumerate(
            comparison_tables(comparison)
        ):
            if position:
                print()
            print(format_table(headers, rows, title=title))
        print()
        if comparison.ok:
            skipped = len(comparison.skipped_floors)
            suffix = f" ({skipped} floors skipped)" if skipped else ""
            print(f"perf: ok — {len(records)} benches within tolerance{suffix}")
            return 0
        for delta in comparison.regressions:
            print(f"perf: REGRESSION {delta.bench_id}: {delta.detail}")
        for check in comparison.violations:
            print(f"perf: FLOOR VIOLATION {check.describe()}")
        return 1
    if args.perf_command == "report":
        baseline = None
        if args.baseline and Path(args.baseline).exists():
            try:
                baseline = load_baseline(args.baseline)
            except ValueError as exc:
                raise SystemExit(f"repro: {exc}") from None
        title, headers, rows = trajectory_table(records, baseline)
        print(format_table(headers, rows, title=title))
        return 0
    raise SystemExit(f"unknown perf command {args.perf_command!r}")


if __name__ == "__main__":
    sys.exit(main())
