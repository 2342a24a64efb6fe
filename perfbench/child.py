"""Workload processes: one task per fresh interpreter.

Usage (the harness starts these; see ``harness.Child``)::

    python3 perfbench/child.py <task> <args.json>

A task prints ``ready`` once it is ready for load (when it has a set-up
phase) and its result as one JSON line, last.  Everything else goes to
stderr.  Spans recorded here are plain dicts in the shape of
``repro.obs.Span.as_dict`` (name, span_id, parent_id, start, duration,
attrs with a shared request id), kept in memory and returned once.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import benchmath as bm

TASKS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {}

#: summarize() arguments the battery and the service both default to.
SUM_PARAMS = {"path_sample_threshold": 1500, "path_samples": 400, "min_tail": 50}


def task(fn):
    TASKS[fn.__name__.replace("_", "-")] = fn
    return fn


def ready() -> None:
    print("ready", flush=True)


def versions() -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Spans:
    """Benchmark-side span recorder: perf_counter durations, wall-clock
    starts (so they line up with the program's own spans in one trace)."""

    def __init__(self) -> None:
        self.items: List[Dict[str, Any]] = []
        self._wall0 = time.time()
        self._pc0 = time.perf_counter()
        self._ids = 0
        self._lock = threading.Lock()

    def new_id(self) -> str:
        with self._lock:
            self._ids += 1
            return f"b{self._ids}"

    def add(self, name: str, t0: float, t1: float, parent: Optional[str] = None,
            span_id: Optional[str] = None, **attrs: Any) -> str:
        span_id = span_id or self.new_id()
        self.items.append({
            "name": name,
            "span_id": span_id,
            "parent_id": parent,
            "start": self._wall0 + (t0 - self._pc0),
            "duration": t1 - t0,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "attrs": attrs,
        })
        return span_id


def summarize_values(generator, n: int, seed: int) -> Dict[str, float]:
    """The in-process reference: ``summarize(generate(...))``."""
    from repro.core.metrics import summarize

    graph = generator.generate(n, seed=seed)
    return summarize(graph, seed=seed, **SUM_PARAMS).as_dict()


# ----------------------------------------------------------------- reference


@task
def ref(args):
    """Reference summaries for service keys (``model``) or battery
    replicates (``label`` in the standard roster at ``n``)."""
    from repro.core.registry import make_generator
    from repro.experiments.rosters import standard_roster
    from repro.graph.csr import resolve_backend

    out = []
    engines = set()
    for key in args["keys"]:
        if "label" in key:
            generator = standard_roster(key["n"])[key["label"]]
        else:
            generator = make_generator(key["model"])
        engines.add(generator.resolve_engine(key["n"]))
        out.append(summarize_values(generator, key["n"], key["seed"]))
    return {
        "values": out,
        "versions": versions(),
        "backend": sorted({resolve_backend("auto", key["n"]) for key in args["keys"]}),
        "engine": sorted(engines),
    }


# ------------------------------------------------------------------- battery


@task
def battery_setup(args):
    from repro.core.battery import compare_models  # noqa: F401
    from repro.experiments.rosters import standard_roster

    standard_roster(args["n"])
    ready()
    return {}


@task
def battery(args):
    """``compare_models`` over the standard roster into a fresh cache.

    Traced runs first repeat the untraced battery in another fresh cache,
    so the tracing overhead is measured within one process."""
    from repro.core.battery import compare_models
    from repro.core.metrics import TopologySummary
    from repro.experiments.rosters import standard_roster
    from repro.graph.csr import resolve_backend
    from repro.obs.tracer import Tracer

    n = args["n"]
    roster = standard_roster(n)
    ready()
    walls = {}
    for traced in ([False, True] if args["trace"] else [False]):
        tracer = Tracer(enabled=traced)
        cache = Path(args["state"]) / ("cells-traced" if traced else "cells")
        started = time.perf_counter()
        result = compare_models(
            roster, n=n, seeds=args["seeds"], base_seed=args["base_seed"],
            jobs=args["jobs"], cache=str(cache), tracer=tracer,
        )
        walls[traced] = time.perf_counter() - started
    run = result.battery
    entries = [
        {
            "model": entry.model,
            "seeds": list(entry.seeds),
            "complete": [isinstance(s, TopologySummary) for s in entry.summaries],
            "values": [s.as_dict() for s in entry.summaries],
        }
        for entry in run.entries
    ]
    out = {
        "wall": walls[args["trace"]],
        "wall_untraced": walls[False],
        "entries": entries,
        "failures": len(run.failures),
        "cache": run.stats.as_dict(),
        "counters": run.metrics.get("counters", {}),
        "transport": run.transport,
        "backend": resolve_backend("auto", n),
        "engine": sorted({g.resolve_engine(n) for g in roster.values()}),
        "versions": versions(),
    }
    if args["trace"]:
        out["spans"] = [span.as_dict() for span in tracer.spans]
        out["timing_table"] = run.timing_table()
        out["resource_table"] = run.resource_table()
        out["engines"] = {label: g.resolve_engine(n) for label, g in roster.items()}
    return out


# --------------------------------------------------------------------- store


@task
def grow(args):
    """Grow each world into its store; counters and reports come back."""
    from repro.core.registry import make_generator
    from repro.obs.metrics import get_registry
    from repro.obs.tracer import Tracer, set_tracer

    tracer = Tracer(enabled=args["trace"])
    set_tracer(tracer)
    reports = []
    engines = {}
    for world in args["worlds"]:
        generator = make_generator(world["model"], **world["params"])
        engine = engines[world["name"]] = generator.resolve_engine(world["n"])
        if args["trace"]:
            generator.generate = _traced_generate(tracer, generator.generate, world["model"], engine)
        report = generator.generate_to_store(
            world["n"], world["path"], seed=world["seed"],
            checkpoint_every=world["every"],
        )
        reports.append({
            "name": world["name"],
            "num_nodes": report.num_nodes,
            "num_edges": report.num_edges,
            "fingerprint": report.fingerprint,
            "chunks_written": report.chunks_written,
            "regenerated": report.regenerated,
            "seconds": report.seconds,
        })
    snapshot = get_registry().snapshot()
    return {
        "reports": reports,
        "engines": engines,
        "counters": snapshot.get("counters", {}),
        "histograms": snapshot.get("histograms", {}),
        "spans": [span.as_dict() for span in tracer.spans],
        "versions": versions(),
    }


def _traced_generate(tracer, generate, model, engine):
    def traced(n, seed=None):
        with tracer.span("generate", model=model, engine=engine, n=n):
            return generate(n, seed=seed)
    return traced


@task
def measure(args):
    """Closed loop of ``GraphStore.open(path).measure()`` round-robin over
    the worlds.  This process never materializes a ``Graph``.  Traced runs
    alternate untraced and traced ops; traced ops time ``open``,
    ``csr()`` and ``measure()`` (``csr()`` is the call ``measure`` makes)."""
    from repro.store.store import GraphStore

    worlds = args["worlds"]
    spans = Spans()
    ready()
    ops = []
    first: Dict[str, Dict[str, float]] = {}
    started = time.perf_counter()
    stop_at = started + args["seconds"]
    k = 0
    while time.perf_counter() < stop_at:
        world = worlds[k % len(worlds)]
        traced = args["trace"] and k % 2 == 1
        if traced:
            values, seconds = _traced_measure(GraphStore, world["path"], spans, k)
        else:
            t0 = time.perf_counter()
            values = GraphStore.open(world["path"]).measure()
            seconds = time.perf_counter() - t0
        reference = first.setdefault(world["name"], values)
        ok = bm.same_values(values, reference) and _matches_report(values, world)
        ops.append({"world": world["name"], "ms": seconds * 1e3, "ok": ok, "traced": traced})
        k += 1
    elapsed = time.perf_counter() - started
    out = {"ops": ops, "elapsed": elapsed, "peak_rss_mb": peak_rss_mb(), "first": first,
           "versions": versions()}
    if args["trace"]:
        out["spans"] = spans.items
        out["mapped_mb"] = {w["name"]: _mapped_mb(GraphStore.open(w["path"]).csr()) for w in worlds}
    return out


def _traced_measure(GraphStore, path, spans: Spans, rid: int):
    t0 = time.perf_counter()
    store = GraphStore.open(path)
    t1 = time.perf_counter()
    csr = store.csr
    csr_times = []

    def timed_csr():
        a = time.perf_counter()
        view = csr()
        csr_times.append((a, time.perf_counter()))
        return view

    store.csr = timed_csr
    values = store.measure()
    t2 = time.perf_counter()
    root = spans.add("op", t0, t2, rid=rid)
    spans.add("store.open", t0, t1, root, rid=rid)
    measure_id = spans.add("store.measure", t1, t2, root, rid=rid)
    for a, b in csr_times:
        spans.add("store.csr", a, b, measure_id, rid=rid)
    return values, t2 - t0


def _matches_report(values, world) -> bool:
    """A measure describes the giant component; scaled back by its
    fraction it must give the grown node count."""
    return (
        round(values["num_nodes"] / values["giant_fraction"]) == world["num_nodes"]
        and values["num_edges"] <= world["num_edges"]
    )


def _mapped_mb(view) -> float:
    import numpy as np

    arrays = (view.indptr, view.indices, view.weights, view.nodes)
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)) / 2**20


@task
def load_check(args):
    """Materialize each world with ``load()`` and check it against its
    growth report and its first measure (python-backend size group)."""
    from repro.core.metrics import compute_metric_groups
    from repro.store.store import GraphStore

    out = []
    for world in args["worlds"]:
        graph = GraphStore.open(world["path"]).load()
        size = compute_metric_groups(graph, ["size"], backend="python")["size"]
        out.append({
            "name": world["name"],
            "counts": graph.num_nodes == world["num_nodes"] and graph.num_edges == world["num_edges"],
            "fingerprint": graph.fingerprint() == world["fingerprint"],
            "size": bm.same_values(size, world["first"]),
        })
    return {"worlds": out}


# ------------------------------------------------------------------- service


def _wrap_cache(dispatcher, spans: Spans, current: Dict[str, Any]):
    """Timing wrappers over the dispatcher's cache; returns (wrapped,
    original) method pairs.  ``current`` names the in-flight request."""
    cache = dispatcher.cache
    get, put = cache.get, cache.put

    def timed_get(key, payload=None):
        a = time.perf_counter()
        value = get(key, payload)
        spans.add("cache.get", a, time.perf_counter(), current["wait"],
                  rid=current["rid"], hit=value is not None)
        return value

    def timed_put(key, value, payload=None):
        a = time.perf_counter()
        put(key, value, payload)
        spans.add("cache.put", a, time.perf_counter(), current["wait"], rid=current["rid"])

    return (timed_get, timed_put), (get, put)


def _set_cache(dispatcher, methods) -> None:
    dispatcher.cache.get, dispatcher.cache.put = methods


def _traced_call(dispatcher, op, params, spans, current, rid, parent, name=None):
    """``submit`` + result wait as spans under *parent* (under a *name*
    span in between when given); returns (result, submit s, wait s)."""
    call_id = spans.new_id() if name else parent
    wait_id = spans.new_id()
    current.update(rid=rid, wait=wait_id)
    t0 = time.perf_counter()
    future = dispatcher.submit(op, params)
    t1 = time.perf_counter()
    result = future.result(120)
    t2 = time.perf_counter()
    if name:
        spans.add(name, t0, t2, parent, span_id=call_id, rid=rid)
    spans.add("dispatcher.submit", t0, t1, call_id, rid=rid)
    spans.add("dispatcher.wait", t1, t2, call_id, span_id=wait_id, rid=rid)
    return result, t1 - t0, t2 - t1


@task
def replay_hit(args):
    """Replay the paced hit stream in-process against a dispatcher on the
    primed state root; even requests run untraced, odd ones traced."""
    from repro.obs.metrics import get_registry
    from repro.serve.dispatcher import ServeDispatcher

    dispatcher = ServeDispatcher(jobs=args["jobs"], root=args["root"])
    spans = Spans()
    current: Dict[str, Any] = {"rid": None, "wait": None}
    wrapped, plain = _wrap_cache(dispatcher, spans, current)
    calls = []
    try:
        stats_before = dispatcher.cache.stats.snapshot()
        t_start = time.perf_counter()
        for rid, (due, params) in enumerate(args["stream"]):
            delay = t_start + due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            traced = rid % 2 == 1
            if traced:
                _set_cache(dispatcher, wrapped)
                root = spans.new_id()
                t0 = time.perf_counter()
                result, submit, wait = _traced_call(
                    dispatcher, "summarize", params, spans, current, rid, root
                )
                spans.add("request", t0, time.perf_counter(), span_id=root, rid=rid)
                calls.append({"traced": True, "submit_ms": submit * 1e3, "wait_ms": wait * 1e3,
                              "call_ms": (submit + wait) * 1e3})
            else:
                _set_cache(dispatcher, plain)
                t0 = time.perf_counter()
                result = dispatcher.call("summarize", params, timeout=120)
                calls.append({"traced": False, "call_ms": (time.perf_counter() - t0) * 1e3})
            calls[-1]["generated"] = result["generated"]
        _set_cache(dispatcher, plain)
        delta = dispatcher.cache.stats.delta(stats_before)
        counters = get_registry().snapshot().get("counters", {})
    finally:
        dispatcher.shutdown()
    return {"calls": calls, "spans": spans.items, "cache": delta.as_dict(),
            "counters": counters, "versions": versions()}


@task
def replay_miss(args):
    """Unseen keys in-process: even keys as one ``call("summarize")``, odd
    keys split into ``call("generate")`` then ``call("summarize")`` with
    submit/wait/cache spans; then a no-op pool round trip and the same
    traced keys computed directly (generate, publish, attach, metrics)
    under the program's own tracer."""
    from repro.core.metrics import METRIC_GROUPS, compute_metric_groups
    from repro.core.registry import make_generator
    from repro.core.transport import attach_graph, publish_graph
    from repro.obs.metrics import get_registry
    from repro.obs.tracer import Tracer, set_tracer
    from repro.serve.dispatcher import ServeDispatcher

    dispatcher = ServeDispatcher(jobs=args["jobs"], root=args["root"])
    spans = Spans()
    current: Dict[str, Any] = {"rid": None, "wait": None}
    wrapped, plain = _wrap_cache(dispatcher, spans, current)
    calls = []
    try:
        rtts = []
        for _ in range(args["rtt_samples"]):
            t0 = time.perf_counter()
            dispatcher.pool.executor.submit(os.getpid).result(30)
            rtts.append((time.perf_counter() - t0) * 1e3)
        stats_before = dispatcher.cache.stats.snapshot()
        for rid, params in enumerate(args["keys"]):
            if rid % 2 == 0:
                _set_cache(dispatcher, plain)
                t0 = time.perf_counter()
                result = dispatcher.call("summarize", params, timeout=120)
                calls.append({"traced": False, "call_ms": (time.perf_counter() - t0) * 1e3,
                              "generated": result["generated"],
                              "computed": len(result["computed_groups"])})
                continue
            _set_cache(dispatcher, wrapped)
            root = spans.new_id()
            t0 = time.perf_counter()
            gen, gen_submit, gen_wait = _traced_call(
                dispatcher, "generate", params, spans, current, rid, root, "dispatcher.generate")
            result, sum_submit, sum_wait = _traced_call(
                dispatcher, "summarize", params, spans, current, rid, root, "dispatcher.measure")
            total = time.perf_counter() - t0
            spans.add("request", t0, t0 + total, span_id=root, rid=rid)
            calls.append({"traced": True, "call_ms": total * 1e3,
                          "generate_ms": (gen_submit + gen_wait) * 1e3,
                          "measure_ms": (sum_submit + sum_wait) * 1e3,
                          "submit_ms": [gen_submit * 1e3, sum_submit * 1e3],
                          "wait_ms": [gen_wait * 1e3, sum_wait * 1e3],
                          "generated": gen["generated"],
                          "computed": len(result["computed_groups"])})
        _set_cache(dispatcher, plain)
        delta = dispatcher.cache.stats.delta(stats_before)
        counters = get_registry().snapshot().get("counters", {})
    finally:
        dispatcher.shutdown()

    tracer = Tracer(enabled=True)
    set_tracer(tracer)
    direct = Path(args["root"]) / "direct"
    for rid, params in enumerate(args["keys"]):
        if rid % 2 == 0:
            continue
        generator = make_generator(params["model"])
        n, seed = params["n"], params["seed"]
        with tracer.span("direct", rid=rid):
            with tracer.span("generate", model=params["model"], engine=generator.resolve_engine(n)):
                graph = generator.generate(n, seed=seed)
            handle = publish_graph(graph, direct / str(rid), name=params["model"])
            attached = attach_graph(handle)
            compute_metric_groups(attached, tuple(METRIC_GROUPS), seed=seed, **SUM_PARAMS)
    return {"calls": calls, "rtt_ms": rtts, "spans": spans.items + [s.as_dict() for s in tracer.spans],
            "cache": delta.as_dict(), "counters": counters, "versions": versions()}


def main(argv: List[str]) -> int:
    name, args_path = argv[1], argv[2]
    args = json.loads(Path(args_path).read_text())
    result = TASKS[name](args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
