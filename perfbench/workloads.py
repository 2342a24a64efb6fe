"""The four workloads.  Each builds its inputs from the seed alone, runs
on a fresh state root in fresh processes, checks every output, and
returns an :class:`Outcome`.

=============  ====================================================
serve-hit      warm service: paced hits on a primed Zipf working set,
               then a closed loop on the same two connections
serve-miss     service write path: never-seen keys in a closed loop
battery-cold   ``compare_models`` over the 12-model roster, n=2000
world-store    out-of-core reads: ``GraphStore.open().measure()``
=============  ====================================================

See ``README.md`` beside this file for why each exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import benchmath as bm
import layers
from harness import BenchError, Child, PeakWatch, run_child, run_children, setup_seconds
from httpload import Server, closed, get_stats, paced

JOBS = 2
MODELS = ("albert-barabasi", "waxman", "glp", "plrg", "brite", "serrano")
GROUPS = ("size", "tail", "clustering", "mixing", "core", "paths")

HIT_N = 600
HIT_SEEDS_PER_MODEL = 4
#: Paced phase: each connection sends every TICK_S, the second half a
#: tick after the first, so sends never collide except in duplicate
#: pairs.  A connection that sends again within ~40 ms of its last
#: response enters delayed-ACK mode, and with the service's two-send
#: responses each later request on it then stalls ~44 ms.  At 15 sends/s
#: per connection one response slower than ~26 ms made that stall stick
#: for the rest of the phase, so p50 jumped between ~3 ms and ~44 ms from
#: run to run; at 10 per connection it clears within a few requests.
TICK_S = 0.1
#: Every 5th tick of the first connection is a duplicate pair: the second
#: connection sends the same key at the same due time and skips its two
#: neighbouring sends, so its spacing never drops below a tick.
DUPLICATE_EVERY = 5
PACED_SHARE = 0.5  # of --seconds; the closed loop gets the rest
MISS_N = 250
BATTERY_N = 2000
BATTERY_SEEDS = 2
BATTERY_ROSTER = 12
WORLD_N = 100_000
WORLD_MODELS = ("plrg", "glp", "barabasi-albert")

#: Tail percentile per workload: a step that leaves at least ten samples
#: beyond it and whose quartile spread across ten seeds stayed under a
#: third of the tail bound (2-CPU VM, Python 3.11).  serve-hit's closed
#: loop (~340 requests) leaves 3 beyond p99; its p95 spread 8.5%, its
#: p90 2%.  serve-miss: p90 spread 10.5% (it falls inside the slowest
#: model's requests), p75 about 4%.  world-store keeps its p95 default.
TAIL = {"serve-hit": 90.0, "serve-miss": 75.0, "world-store": 95.0}

#: A paced run is invalid when the generator itself, not the service,
#: sent its p99 op this late past the moment it could: a fifth of a tick
#: late, the schedule the phase relies on no longer holds.
MAX_GENERATOR_LATE_S = TICK_S / 5

END_TO_END = (
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
)

PER_LAYER = (
    ("server.http_ms", "ms"),
    ("dispatcher.submit_ms", "ms"),
    ("dispatcher.wait_ms", "ms"),
    ("dispatcher.coalesce_ratio", "share"),
    ("dispatcher.generate_ms", "ms"),
    ("dispatcher.measure_ms", "ms"),
    ("dispatcher.rejected", "count"),
    ("cache.get_us", "us"),
    ("cache.gets", "count"),
    ("cache.hit_ratio", "share"),
    ("cache.put_us", "us"),
    ("cache.puts", "count"),
    ("cache.corrupt", "count"),
    ("pool.task_rtt_ms", "ms"),
    ("pool.busy_share", "share"),
    ("battery.units", "count"),
    ("battery.retries", "count"),
    ("battery.failed", "count"),
    ("battery.generations_per_topology", "ratio"),
    ("transport.publish_s", "s"),
    ("transport.bytes_shared", "bytes"),
    ("transport.attach_s", "s"),
    ("transport.attach_reuse_ratio", "share"),
    ("generate.python_s", "s"),
    ("generate.vector_s", "s"),
    ("metric.giant_s", "s"),
    ("metric.size_s", "s"),
    ("metric.tail_s", "s"),
    ("metric.clustering_s", "s"),
    ("metric.mixing_s", "s"),
    ("metric.core_s", "s"),
    ("metric.paths_s", "s"),
    ("metric.giant_per_topology", "ratio"),
    ("store.grow_s", "s"),
    ("store.ingest_rows_per_s", "1/s"),
    ("store.snapshot_write_s", "s"),
    ("store.open_ms", "ms"),
    ("store.csr_ms", "ms"),
    ("store.measure_ms", "ms"),
    ("store.mapped_mb", "MB"),
    ("obs.trace_overhead_share", "share"),
    ("unattributed_share", "share"),
    ("loadgen.late_p99_ms", "ms"),
)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    tally: bm.Tally = field(default_factory=bm.Tally)
    checks: Dict[str, bool] = field(default_factory=dict)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=lambda: {n: 0 for n, _ in PER_LAYER})
    notes: List[str] = field(default_factory=list)
    tables: List[str] = field(default_factory=list)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    env: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.tally.wrong == 0 and all(self.checks.values())

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks[name] = bool(ok)
        self.notes.append(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")

    def latency(self, workload: str, seconds: Sequence[float]) -> None:
        """p50 and the workload's fixed tail percentile, in ms."""
        q = bm.tail_percentile(len(seconds), TAIL[workload])
        self.end_to_end["p50_ms"] = bm.median(seconds) * 1e3
        self.end_to_end["tail_ms"] = bm.percentile(seconds, q) * 1e3
        spread = "/".join(f"{bm.percentile(seconds, p) * 1e3:.3f}" for p in (50, 75, 90, 95, 99))
        self.notes.append(f"tail_ms = p{q:g} over {len(seconds)} samples; p50/75/90/95/99 = {spread} ms")


def _median_ms(values: Sequence[float]) -> float:
    return bm.median(values) * 1e3 if values else 0.0


def _delta(after: Dict[str, Any], before: Dict[str, Any], name: str) -> int:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def _cache_delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, int]:
    return {k: after["cache"][k] - before["cache"][k] for k in ("hits", "misses", "writes", "corrupt")}


def _parse(body: bytes) -> Optional[Dict[str, Any]]:
    try:
        return json.loads(body)
    except ValueError:
        return None


def _span_table(out: Outcome, title: str) -> None:
    rows = layers.span_rows(out.spans)
    out.tables.append(layers.format_table(
        ["layer", "span", "count", "total_ms", "self_ms", "errors"], rows, title))
    own = layers.layer_self_seconds(out.spans)
    total = sum(own.values())
    rows = [[layer, s * 1e3, s / total] for layer, s in sorted(own.items(), key=lambda kv: -kv[1])]
    out.tables.append(layers.format_table(["layer", "self_ms", "share"], rows, "self time by layer"))


def _span_sum(spans, name: str) -> float:
    own = bm.self_times(spans)
    return sum(own[s["span_id"]] for s in spans if s["name"] == name)


def _metric_layers(out: Outcome, spans, topologies: int) -> None:
    """core.metrics rows from the program's ``giant``/``metric.<group>``
    spans (self time, by backend in the table)."""
    for group in ("giant",) + GROUPS:
        name = "giant" if group == "giant" else f"metric.{group}"
        out.per_layer[f"metric.{group}_s"] = _span_sum(spans, name)
    out.per_layer["metric.giant_per_topology"] = len(layers.durations(spans, "giant")) / topologies
    by_backend: Dict[Tuple[str, str], List[float]] = {}
    for span in spans:
        if span["name"] == "giant" or span["name"].startswith("metric."):
            key = (span["name"], str(span["attrs"].get("backend", "-")))
            cell = by_backend.setdefault(key, [0, 0.0])
            cell[0] += 1
            cell[1] += span["duration"]
    rows = [[name, backend, c, s] for (name, backend), (c, s) in sorted(by_backend.items())]
    out.tables.append(layers.format_table(["span", "backend", "count", "seconds"], rows,
                                          "core.metrics by backend"))


def _generate_layers(out: Outcome, spans, engine_of) -> None:
    """generators rows: generation time by resolved engine, per model."""
    per_model: Dict[Tuple[str, str], List[float]] = {}
    for span in spans:
        if span["name"] != "generate":
            continue
        model = span["attrs"].get("model")
        engine = span["attrs"].get("engine") or engine_of(model)
        cell = per_model.setdefault((model, engine), [0, 0.0])
        cell[0] += 1
        cell[1] += span["duration"]
    for engine in ("python", "vector"):
        out.per_layer[f"generate.{engine}_s"] = sum(
            s for (_, e), (_, s) in per_model.items() if e == engine)
    rows = [[m, e, c, s] for (m, e), (c, s) in sorted(per_model.items())]
    out.tables.append(layers.format_table(["model", "engine", "count", "seconds"], rows,
                                          "generators per model"))


# ------------------------------------------------------------------ serve-hit


def serve_hit(seed: int, seconds: float, trace: bool, state: Path) -> Outcome:
    out = Outcome()
    rng = random.Random(f"serve-hit/{seed}")
    keys = [(m, s) for m in MODELS for s in rng.sample(range(1, 10**6), HIT_SEEDS_PER_MODEL)]
    rng.shuffle(keys)  # rank order of the Zipf working set
    weights = [1.0 / (rank + 1) for rank in range(len(keys))]

    def params(key):
        return {"model": key[0], "n": HIT_N, "seed": key[1]}

    paced_seconds = seconds * PACED_SHARE
    schedules: List[List] = [[], []]
    index = pairs = 0
    ticks = int(paced_seconds / TICK_S)
    for tick in range(ticks):
        due = tick * TICK_S
        key = rng.choices(keys, weights)[0]
        schedules[0].append((due, index, key, params(key)))
        index += 1
        if tick % DUPLICATE_EVERY == DUPLICATE_EVERY - 1:
            pairs += 1
            schedules[1].append((due, index, key, params(key)))
            index += 1
        elif tick % DUPLICATE_EVERY != DUPLICATE_EVERY - 2:
            key = rng.choices(keys, weights)[0]
            schedules[1].append((due + TICK_S / 2, index, key, params(key)))
            index += 1
    closed_rng = random.Random(rng.random())
    closed_keys = ((k, params(k)) for k in iter(lambda: closed_rng.choices(keys, weights)[0], None))

    server = Server(state / "serve", JOBS)
    try:
        started = time.perf_counter()
        server.start()
        conns = [server.connect(), server.connect()]
        primed: Dict[Tuple[str, int], Dict[str, Any]] = {}
        for op in paced(conns, [[(0.0, i, k, params(k)) for i, k in enumerate(keys[c::2])] for c in (0, 1)]):
            body = _parse(op.body)
            if op.status != 200 or body is None:
                raise BenchError(f"priming {op.key} answered {op.status}")
            primed[op.key] = body
        out.end_to_end["setup_s"] = time.perf_counter() - started

        stats0 = get_stats(conns[0])
        phase1 = paced(conns, schedules)
        stats1 = get_stats(conns[0])
        phase2, elapsed2 = closed(conns, closed_keys, seconds - paced_seconds)
        stats2 = get_stats(conns[0])
        out.end_to_end["peak_rss_mb"] = server.peak_rss_mb()
        for conn in conns:
            conn.close()
    finally:
        server.stop()

    ok2 = 0
    for phase, ops in ((1, phase1), (2, phase2)):
        for op in ops:
            body = _parse(op.body) if op.status == 200 else None
            value_ok = (body is not None and body.get("generated") == 0
                        and bm.same_values(body.get("values", {}), primed[op.key]["values"]))
            outcome = bm.classify(op.status, value_ok)
            out.tally.add(outcome)
            ok2 += phase == 2 and outcome == bm.OK
    # p50 and tail come from the closed loop.  The paced phase's
    # millisecond latencies spread 20-44% across seeds with the host's
    # contention regimes (README, finding 6); they are printed, not bounded.
    out.latency("serve-hit", [op.timing.latency for op in phase2])
    paced_ms = "/".join(f"{bm.percentile([op.timing.latency for op in phase1], q) * 1e3:.3f}"
                        for q in (50, 75, 90, 95, 99))
    out.notes.append(f"paced phase (due-time latency) p50/75/90/95/99 = {paced_ms} ms")
    out.end_to_end["throughput_per_s"] = ok2 / elapsed2
    out.end_to_end["ok_share"] = out.tally.ok_share

    late = [op.timing.generator_lateness for op in phase1]
    late_p99 = bm.percentile(late, 99)
    out.per_layer["loadgen.late_p99_ms"] = late_p99 * 1e3
    out.check("generator-on-time", late_p99 < MAX_GENERATOR_LATE_S,
              f"generator lateness p50/p99 {bm.median(late) * 1e3:.3f}/{late_p99 * 1e3:.3f} ms, "
              f"limit {MAX_GENERATOR_LATE_S * 1e3:g} ms")

    cache = _cache_delta(stats2, stats0)
    gets = cache["hits"] + cache["misses"]
    coalesced = _delta(stats2, stats0, "serve.coalesce.hits")
    answered = sum(op.status == 200 for op in phase1 + phase2)
    generations = _delta(stats2, stats0, "serve.generations.computed")
    out.check("zero-generations", generations == 0, f"{generations} generations in the timed phases")
    out.check("cache-get-identity", gets == len(GROUPS) * (answered - coalesced),
              f"cache.gets {gets} = 6 x ({answered} requests - {coalesced} coalesced)")
    sample = [params(k) for k in rng.sample(keys, 4)]
    reference = run_child("ref", {"keys": sample}, state)
    same = [bm.same_values(primed[(k["model"], k["seed"])]["values"], r)
            for k, r in zip(sample, reference["values"])]
    out.check("reference", all(same) and len(same) == len(sample),
              f"{sum(same)}/{len(sample)} sampled primed keys equal in-process summarize(generate())")
    _record_env(out, reference)

    pair_hits = _delta(stats1, stats0, "serve.coalesce.hits")
    out.per_layer.update({
        "dispatcher.coalesce_ratio": pair_hits / pairs if pairs else 0.0,
        "dispatcher.rejected": _delta(stats2, stats0, "serve.rejected"),
        "cache.gets": gets,
        "cache.hit_ratio": cache["hits"] / gets if gets else 0.0,
        "cache.puts": cache["writes"],
        "cache.corrupt": cache["corrupt"],
    })
    out.notes.append(f"paced: {len(phase1)} requests, one per connection every {TICK_S:g}s "
                     f"(staggered), {pairs} duplicate pairs; "
                     f"closed: {len(phase2)} requests in {elapsed2:.3f}s")
    if trace:
        _trace_hit(out, phase1, state)
    return out


def _record_env(out: Outcome, reference) -> None:
    out.env.update(reference["versions"], backend=reference["backend"],
                   engine=reference["engine"], transport="shared (service spool)")


def _trace_hit(out: Outcome, phase1, state: Path) -> None:
    stream = [(op.timing.due - phase1[0].timing.due, {"model": op.key[0], "n": HIT_N, "seed": op.key[1]})
              for op in phase1]
    replay = run_child("replay-hit", {"root": str(state / "serve"), "jobs": JOBS, "stream": stream}, state)
    out.env.update(replay["versions"])
    calls = replay["calls"]
    plain = [c["call_ms"] for c in calls if not c["traced"]]
    traced = [c for c in calls if c["traced"]]
    spans = out.spans = replay["spans"]
    out.per_layer.update({
        "server.http_ms": _median_ms([op.timing.round_trip for op in phase1]) - bm.median(plain),
        "dispatcher.submit_ms": bm.median([c["submit_ms"] for c in traced]),
        "dispatcher.wait_ms": bm.median([c["wait_ms"] for c in traced]),
        "cache.get_us": bm.median(layers.durations(spans, "cache.get")) * 1e6,
        "obs.trace_overhead_share": bm.median([c["call_ms"] for c in traced]) / bm.median(plain) - 1.0,
        "unattributed_share": bm.unattributed_share(spans, layers.roots(spans)),
    })
    out.check("replay-zero-generations", all(c["generated"] == 0 for c in calls),
              f"{len(calls)} in-process replays of the paced stream")
    _span_table(out, "serve-hit: in-process replay of the paced stream (odd requests traced)")


# ----------------------------------------------------------------- serve-miss


def serve_miss(seed: int, seconds: float, trace: bool, state: Path) -> Outcome:
    out = Outcome()
    rng = random.Random(f"serve-miss/{seed}")
    base = rng.randrange(1, 10**8)

    def key(i):
        return (MODELS[i % len(MODELS)], base + i)

    keys = ((k, {"model": k[0], "n": MISS_N, "seed": k[1]}) for k in map(key, itertools.count()))

    readies = []
    for attempt in range(2):
        spare = Server(state / f"serve-setup-{attempt}", JOBS)
        try:
            readies.append(spare.start())
        finally:
            spare.stop()
    server = Server(state / "serve", JOBS)
    try:
        readies.append(server.start())
        out.end_to_end["setup_s"] = bm.median(readies)
        conns = [server.connect(), server.connect()]
        stats0 = get_stats(conns[0])
        ops, elapsed = closed(conns, keys, seconds)
        stats1 = get_stats(conns[0])
        out.end_to_end["peak_rss_mb"] = server.peak_rss_mb()
        for conn in conns:
            conn.close()
    finally:
        server.stop()

    answers = {}
    for op in ops:
        body = _parse(op.body) if op.status == 200 else None
        value_ok = (body is not None and body.get("generated") == 1
                    and sorted(body.get("computed_groups", ())) == sorted(GROUPS))
        outcome = bm.classify(op.status, value_ok)
        out.tally.add(outcome)
        if outcome == bm.OK:
            answers[op.key] = body["values"]
    out.latency("serve-miss", [op.timing.round_trip for op in ops])
    out.end_to_end["throughput_per_s"] = len(answers) / elapsed
    out.end_to_end["ok_share"] = out.tally.ok_share

    generations = _delta(stats1, stats0, "serve.generations.computed")
    out.check("generations-equal-requests", generations == len(answers),
              f"{generations} generations for {len(answers)} answered requests")
    sample = rng.sample(sorted(answers), min(6, len(answers)))
    reference = run_child("ref", {"keys": [{"model": m, "n": MISS_N, "seed": s} for m, s in sample]}, state)
    same = [bm.same_values(answers[k], r) for k, r in zip(sample, reference["values"])]
    out.check("reference", all(same) and len(same) == 6,
              f"{sum(same)}/{len(same)} sampled keys equal in-process summarize(generate())")
    _record_env(out, reference)
    cache = _cache_delta(stats1, stats0)
    gets = cache["hits"] + cache["misses"]
    attaches = _delta(stats1, stats0, "transport.attach.cached") + _delta(stats1, stats0, "transport.attach.opened")
    out.per_layer.update({
        "dispatcher.rejected": _delta(stats1, stats0, "serve.rejected"),
        "cache.gets": gets,
        "cache.hit_ratio": cache["hits"] / gets if gets else 0.0,
        "cache.puts": cache["writes"],
        "cache.corrupt": cache["corrupt"],
        "transport.bytes_shared": _delta(stats1, stats0, "transport.bytes_shared"),
        "transport.attach_reuse_ratio":
            _delta(stats1, stats0, "transport.attach.cached") / attaches if attaches else 0.0,
    })
    out.notes.append(f"closed: {len(ops)} requests over {len(conns)} connections in {elapsed:.3f}s")
    if trace:
        _trace_miss(out, rng, state)
    return out


def _trace_miss(out: Outcome, rng, state: Path) -> None:
    base = rng.randrange(10**8, 2 * 10**8)
    # Key i is traced when odd; pairing keys by model gives every model
    # both traced and untraced keys.
    keys = [{"model": MODELS[(i // 2) % len(MODELS)], "n": MISS_N, "seed": base + i} for i in range(24)]
    replay = run_child("replay-miss", {"root": str(state / "replay"), "jobs": JOBS, "keys": keys,
                                       "rtt_samples": 30}, state)
    out.env.update(replay["versions"])
    calls = replay["calls"]
    plain = [c["call_ms"] for c in calls if not c["traced"]]
    traced = [c for c in calls if c["traced"]]
    spans = out.spans = replay["spans"]
    direct = [s for s in spans if s["name"] == "direct"]
    out.per_layer.update({
        "dispatcher.submit_ms": bm.median([x for c in traced for x in c["submit_ms"]]),
        "dispatcher.wait_ms": bm.median([x for c in traced for x in c["wait_ms"]]),
        "dispatcher.generate_ms": bm.median([c["generate_ms"] for c in traced]),
        "dispatcher.measure_ms": bm.median([c["measure_ms"] for c in traced]),
        "pool.task_rtt_ms": bm.median(replay["rtt_ms"]),
        "cache.get_us": bm.median(layers.durations(spans, "cache.get")) * 1e6,
        "cache.put_us": bm.median(layers.durations(spans, "cache.put")) * 1e6,
        "transport.publish_s": _span_sum(spans, "transport.publish"),
        "transport.attach_s": _span_sum(spans, "transport.attach"),
        "obs.trace_overhead_share": bm.median([c["call_ms"] for c in traced]) / bm.median(plain) - 1.0,
        "unattributed_share": bm.unattributed_share(spans, layers.roots(spans)),
    })
    _generate_layers(out, spans, lambda model: "python")
    _metric_layers(out, spans, len(direct))
    out.check("replay-split", all(c["generated"] == 1 and c["computed"] == len(GROUPS) for c in calls),
              f"{len(calls)} in-process unseen keys generated once, six groups computed")
    _span_table(out, "serve-miss: in-process unseen keys (odd keys split and traced) and direct compute")


# --------------------------------------------------------------- battery-cold


def battery_cold(seed: int, seconds: float, trace: bool, state: Path) -> Outcome:
    out = Outcome()
    rng = random.Random(f"battery-cold/{seed}")
    base_seed = rng.randrange(1, 10**6)
    replicates = BATTERY_ROSTER * BATTERY_SEEDS

    readies = [setup_seconds("battery-setup", {"n": BATTERY_N}, state) for _ in range(3)]
    main = Child("battery", {"n": BATTERY_N, "seeds": BATTERY_SEEDS, "jobs": JOBS, "base_seed": base_seed,
                             "state": str(state / "battery"), "trace": trace}, state).start()
    try:
        with PeakWatch(main.proc.pid) as watch:
            readies.append(main.wait_ready())
            res = main.result()
    finally:
        main.kill()
    out.end_to_end["setup_s"] = bm.median(readies)
    out.end_to_end["peak_rss_mb"] = watch.total_mb
    out.env.update(res["versions"], backend=res["backend"], engine=res["engine"], transport=res["transport"])

    # One replicate per model, recomputed in two reference processes.
    picks = [(entry, rng.randrange(len(entry["seeds"]))) for entry in res["entries"]]
    halves = [picks[0::2], picks[1::2]]
    refs = run_children([("ref", {"keys": [{"label": e["model"], "n": BATTERY_N, "seed": e["seeds"][r]}
                                          for e, r in half]}) for half in halves], state)
    mismatched = set()
    for half, ref in zip(halves, refs):
        for (entry, r), values in zip(half, ref["values"]):
            if not bm.same_values(entry["values"][r], values):
                mismatched.add((entry["model"], r))
    for entry in res["entries"]:
        for r, complete in enumerate(entry["complete"]):
            if not complete:
                out.tally.add(bm.ERROR)
            else:
                out.tally.add(bm.WRONG if (entry["model"], r) in mismatched else bm.OK)
    wall = res["wall"]
    out.end_to_end.update({
        "p50_ms": wall * 1e3,
        "tail_ms": wall * 1e3,
        "throughput_per_s": out.tally.counts[bm.OK] / wall,
        "ok_share": out.tally.ok_share,
    })
    out.notes.append(f"one op per run (the whole table): p50_ms and tail_ms are its wall time; "
                     f"{replicates} replicates at n={BATTERY_N}, jobs={JOBS}")
    counters = res["counters"]
    units = counters.get("battery.units.completed", 0)
    per_topology = counters.get("battery.generations.computed", 0) / replicates
    out.check("reference", not mismatched and len(picks) == BATTERY_ROSTER,
              f"{len(picks) - len(mismatched)}/{len(picks)} recomputed replicates match")
    out.check("no-failed-units", res["failures"] == 0 and out.tally.failed == 0,
              f"{res['failures']} failed units, {out.tally.failed} incomplete replicates")
    out.check("units", units == 168, f"battery.units = {units} (expected 168)")
    out.check("cache-puts", res["cache"]["writes"] == 150, f"cache.puts = {res['cache']['writes']} (expected 150)")
    out.check("generations-per-topology", per_topology == 1.0, f"= {per_topology:g} (expected 1)")
    out.per_layer.update({
        "battery.units": units,
        "battery.retries": counters.get("battery.units.retried", 0),
        "battery.failed": counters.get("battery.units.failed", 0),
        "battery.generations_per_topology": per_topology,
        "cache.gets": res["cache"]["hits"] + res["cache"]["misses"],
        "cache.hit_ratio": res["cache"]["hit_rate"],
        "cache.puts": res["cache"]["writes"],
        "cache.corrupt": res["cache"]["corrupt"],
        "transport.bytes_shared": counters.get("transport.bytes_shared", 0),
    })
    attaches = counters.get("transport.attach.cached", 0) + counters.get("transport.attach.opened", 0)
    if attaches:
        out.per_layer["transport.attach_reuse_ratio"] = counters.get("transport.attach.cached", 0) / attaches
    if trace:
        _trace_battery(out, res)
    return out


def _trace_battery(out: Outcome, res) -> None:
    spans = out.spans = res["spans"]
    battery_span = next(s for s in spans if s["name"] == "battery")
    out.per_layer.update({
        "pool.busy_share": sum(layers.durations(spans, "unit")) / (JOBS * battery_span["duration"]),
        "transport.publish_s": _span_sum(spans, "transport.publish"),
        "transport.attach_s": _span_sum(spans, "transport.attach"),
        "cache.get_us": bm.median(layers.durations(spans, "cache.get")) * 1e6,
        "cache.put_us": bm.median(layers.durations(spans, "cache.put")) * 1e6,
        "obs.trace_overhead_share": res["wall"] / res["wall_untraced"] - 1.0,
        "unattributed_share": bm.unattributed_share(spans, layers.roots(spans)),
    })
    _generate_layers(out, spans, lambda model: res["engines"].get(model, "python"))
    _metric_layers(out, spans, BATTERY_ROSTER * BATTERY_SEEDS + 1)
    _span_table(out, "battery-cold: compare_models spans (parent and workers)")
    for name, (headers, rows) in (("BatteryResult.timing_table()", res["timing_table"]),
                                  ("BatteryResult.resource_table()", res["resource_table"])):
        out.tables.append(layers.format_table(headers, rows, name))
    counters = sorted(res["counters"].items())
    out.tables.append(layers.format_table(["counter", "delta"], counters, "registry counter deltas"))


# ---------------------------------------------------------------- world-store


def world_store(seed: int, seconds: float, trace: bool, state: Path) -> Outcome:
    out = Outcome()
    rng = random.Random(f"world-store/{seed}")
    worlds = [
        {"name": model, "model": model, "params": {}, "n": WORLD_N, "seed": rng.randrange(1, 10**6),
         "every": WORLD_N // 10, "path": str(state / "worlds" / f"{model}.db")}
        for model in WORLD_MODELS
    ]
    (state / "worlds").mkdir(parents=True, exist_ok=True)
    # Set-up grows the worlds in two processes, one per CPU: plrg and glp
    # in one, barabasi-albert (the slowest) in the other.
    started = time.perf_counter()
    grown = _merge_grown(run_children(
        [("grow", {"worlds": part, "trace": trace}) for part in (worlds[:2], worlds[2:])], state))
    grow_wall = time.perf_counter() - started
    for world, report in zip(worlds, grown["reports"]):
        world.update(num_nodes=report["num_nodes"], num_edges=report["num_edges"],
                     fingerprint=report["fingerprint"])
    reader = Child("measure", {"worlds": worlds, "seconds": seconds, "trace": trace}, state).start()
    try:
        out.end_to_end["setup_s"] = grow_wall + reader.wait_ready()
        res = reader.result()
    finally:
        reader.kill()
    out.env.update(res["versions"], engine=grown["engines"], backend="view (size group)")

    for world in worlds:
        world["first"] = res["first"][world["name"]]
    checked = [w for res_part in run_children(
        [("load-check", {"worlds": half}) for half in (worlds[:2], worlds[2:])], state)
        for w in res_part["worlds"]]

    ops = res["ops"]
    for op in ops:
        out.tally.add(bm.OK if op["ok"] else bm.WRONG)
    untraced = [op["ms"] / 1e3 for op in ops if not op["traced"]]
    out.latency("world-store", untraced)
    out.end_to_end["throughput_per_s"] = len(ops) / res["elapsed"]
    out.end_to_end["peak_rss_mb"] = res["peak_rss_mb"]
    out.end_to_end["ok_share"] = out.tally.ok_share

    load_ok = all(w["counts"] and w["fingerprint"] and w["size"] for w in checked)
    out.check("load-agrees", load_ok and len(checked) == len(worlds),
              "; ".join(f"{w['name']}: counts={w['counts']} fingerprint={w['fingerprint']} size={w['size']}"
                        for w in checked))
    rows = grown["counters"].get("store.rows.edges", 0)
    expected = sum(w["num_edges"] for w in worlds)
    out.check("edge-rows", rows == expected, f"store.rows.edges = {rows}, worlds hold {expected} edges")
    grow_times = ", ".join("%s %.2fs" % (r["name"], r["seconds"]) for r in grown["reports"])
    out.notes.append(f"{len(ops)} measures round-robin over {len(worlds)} worlds of {WORLD_N} nodes; "
                     f"grow {grow_times}")
    reports = grown["reports"]
    chunk = grown["histograms"].get("store.chunk.seconds", {})
    ingest_rows = grown["counters"].get("store.rows.nodes", 0) + rows
    out.per_layer.update({
        "store.grow_s": sum(r["seconds"] for r in reports),
        "store.ingest_rows_per_s": ingest_rows / chunk["sum"] if chunk.get("sum") else 0.0,
    })
    if trace:
        _trace_world(out, res, grown)
    return out


def _merge_grown(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {"reports": [], "engines": {}, "counters": {}, "histograms": {}, "spans": []}
    for part in parts:
        merged["reports"] += part["reports"]
        merged["engines"].update(part["engines"])
        merged["spans"] += part["spans"]
        for name, value in part["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, hist in part["histograms"].items():
            into = merged["histograms"].setdefault(name, {"count": 0, "sum": 0.0})
            into["count"] += hist["count"]
            into["sum"] += hist["sum"]
    return merged


def _trace_world(out: Outcome, res, grown) -> None:
    spans = out.spans = res["spans"] + grown["spans"]
    measure = [s for s in res["spans"] if s["name"] == "store.measure"]
    own = bm.self_times(res["spans"])
    plain = [op["ms"] for op in res["ops"] if not op["traced"]]
    traced = [op["ms"] for op in res["ops"] if op["traced"]]
    out.per_layer.update({
        "store.snapshot_write_s": sum(layers.durations(grown["spans"], "store.snapshot")),
        "store.open_ms": _median_ms(layers.durations(res["spans"], "store.open")),
        "store.csr_ms": _median_ms(layers.durations(res["spans"], "store.csr")),
        "store.measure_ms": _median_ms([own[s["span_id"]] for s in measure]),
        "store.mapped_mb": sum(res["mapped_mb"].values()),
        "obs.trace_overhead_share": bm.median(traced) / bm.median(plain) - 1.0,
        "unattributed_share": bm.unattributed_share(res["spans"], layers.roots(res["spans"])),
    })
    _generate_layers(out, grown["spans"], lambda model: grown["engines"].get(model, "vector"))
    out.notes.append("store.mapped_mb is computed from the snapshot array sizes, not measured")
    _span_table(out, "world-store: grow (setup process) and traced measures (reader process)")


WORKLOADS = {
    "serve-hit": serve_hit,
    "serve-miss": serve_miss,
    "battery-cold": battery_cold,
    "world-store": world_store,
}
