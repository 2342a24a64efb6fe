"""Journal and trace analysis: the library behind ``repro journal``.

A battery leaves two artifacts — the JSONL run journal and (optionally) a
Chrome trace — and this module turns either into the reports an operator
actually wants: per-model and per-metric-group wall time, worker skew,
retry counts, and cache efficiency, grouped by ``run_id`` so a journal
that accumulated several runs reads as several runs.

Everything returns plain ``(title, headers, rows)`` table triples; the CLI
renders them with :func:`repro.core.report.format_table`, tests assert on
the rows directly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

__all__ = [
    "group_runs",
    "summarize_run",
    "journal_summary_tables",
    "tail_lines",
    "span_aggregate",
    "load_trace_spans",
]

#: Key for events written before run_id stamping existed (or emitted by
#: foreign tooling); they still group and summarize.
UNSTAMPED = "-"

Table = Tuple[str, List[str], List[List[Any]]]


def group_runs(
    events: Sequence[Mapping[str, Any]]
) -> Dict[str, List[Mapping[str, Any]]]:
    """Partition journal events by ``run_id``, preserving first-seen order.

    Events with no ``run_id`` (pre-stamping journals) land under
    :data:`UNSTAMPED`.
    """
    runs: Dict[str, List[Mapping[str, Any]]] = {}
    for event in events:
        runs.setdefault(str(event.get("run_id", UNSTAMPED)), []).append(event)
    return runs


def summarize_run(events: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Aggregate one run's events into a stats dict.

    Keys: ``config`` (from battery_start or serve_start, including how
    the run executed: ``transport``, ``transport_forced``, ``mp_start``),
    ``units_ok``/``units_failed``/``retries``/``cache_hits``,
    ``elapsed``, ``models`` (label → dict with
    units/seconds/max_rss_kb/cpu_seconds), ``groups`` (group → seconds,
    including ``generate``), ``workers`` (pid → busy seconds), ``skew``
    (max/mean worker busy ratio, 1.0 when balanced or trivial).
    """
    summary: Dict[str, Any] = {
        "config": {},
        "units_ok": 0,
        "units_failed": 0,
        "retries": 0,
        "cache_hits": 0,
        "elapsed": None,
        "cache": {},
        "models": {},
        "groups": {},
        "workers": {},
    }
    for event in events:
        kind = event.get("event")
        if kind in ("battery_start", "serve_start"):
            summary["config"] = {
                key: event[key]
                for key in (
                    "models", "n", "seeds", "jobs", "timeout", "retries",
                    "transport", "transport_forced", "mp_start",
                )
                if key in event
            }
        elif kind == "cache_hit":
            summary["cache_hits"] += 1
        elif kind == "unit_retry":
            summary["retries"] += 1
        elif kind == "unit_fail":
            summary["units_failed"] += 1
        elif kind == "unit_finish":
            summary["units_ok"] += 1
            seconds = float(event.get("seconds", 0.0))
            model = str(event.get("model", "?"))
            slot = summary["models"].setdefault(
                model,
                {"units": 0, "seconds": 0.0, "max_rss_kb": 0.0, "cpu_seconds": 0.0},
            )
            slot["units"] += 1
            slot["seconds"] += seconds
            slot["max_rss_kb"] = max(
                slot["max_rss_kb"], float(event.get("max_rss_kb", 0.0))
            )
            slot["cpu_seconds"] += float(event.get("cpu_seconds", 0.0))
            gen = event.get("gen_seconds")
            if gen is not None:
                summary["groups"]["generate"] = (
                    summary["groups"].get("generate", 0.0) + float(gen)
                )
            for group, group_seconds in (event.get("groups") or {}).items():
                summary["groups"][group] = (
                    summary["groups"].get(group, 0.0) + float(group_seconds)
                )
            worker = event.get("worker")
            if worker is not None:
                summary["workers"][worker] = (
                    summary["workers"].get(worker, 0.0) + seconds
                )
        elif kind == "battery_end":
            summary["elapsed"] = event.get("elapsed")
            summary["cache"] = dict(event.get("cache") or {})
    busy = list(summary["workers"].values())
    if busy and sum(busy) > 0:
        mean = sum(busy) / len(busy)
        summary["skew"] = (max(busy) / mean) if mean > 0 else 1.0
    else:
        summary["skew"] = 1.0
    return summary


def journal_summary_tables(
    events: Sequence[Mapping[str, Any]], run_id: str = ""
) -> List[Table]:
    """Per-run report tables for a journal's events.

    With *run_id* given, only that run is reported; otherwise every run in
    first-seen order.  Unknown run ids raise ``KeyError`` naming the ids
    that do exist.
    """
    runs = group_runs(events)
    if run_id:
        if run_id not in runs:
            known = ", ".join(runs) or "none"
            raise KeyError(f"run {run_id!r} not in journal; runs present: {known}")
        runs = {run_id: runs[run_id]}
    tables: List[Table] = []
    for rid, run_events in runs.items():
        stats = summarize_run(run_events)
        config = stats["config"]
        total = stats["units_ok"] + stats["units_failed"]
        cache = stats["cache"]
        probes = stats["cache_hits"] + cache.get("misses", 0)
        hit_rate = (stats["cache_hits"] / probes) if probes else 0.0
        transport = str(config.get("transport", "?"))
        if config.get("transport_forced"):
            transport += " (forced)"  # by REPRO_TRANSPORT, not the size rule
        overview_rows = [
            ["models", ",".join(config.get("models", [])) or "?"],
            ["n", config.get("n", "?")],
            ["jobs", config.get("jobs", "?")],
            ["transport", transport],
            ["mp_start", config.get("mp_start", "?")],
            ["units ok/failed", f"{stats['units_ok']}/{stats['units_failed']}"],
            ["retries", stats["retries"]],
            ["cache hits", stats["cache_hits"]],
            ["cache hit rate", round(hit_rate, 4)],
            ["worker skew", round(stats["skew"], 4)],
            ["elapsed s", stats["elapsed"] if stats["elapsed"] is not None else "?"],
        ]
        tables.append((f"run {rid}: overview", ["field", "value"], overview_rows))
        if stats["models"]:
            model_rows = [
                [
                    model,
                    slot["units"],
                    round(slot["seconds"], 4),
                    round(slot["seconds"] / slot["units"], 4) if slot["units"] else 0,
                    round(slot["cpu_seconds"], 4),
                    round(slot["max_rss_kb"], 1),
                ]
                for model, slot in sorted(stats["models"].items())
            ]
            tables.append(
                (
                    f"run {rid}: per-model wall time",
                    ["model", "units", "seconds", "mean", "cpu_s", "max_rss_kb"],
                    model_rows,
                )
            )
        if stats["groups"]:
            group_total = sum(stats["groups"].values()) or 1.0
            group_rows = [
                [group, round(seconds, 4), round(seconds / group_total, 4)]
                for group, seconds in sorted(
                    stats["groups"].items(), key=lambda kv: -kv[1]
                )
            ]
            tables.append(
                (f"run {rid}: per-group seconds", ["group", "seconds", "share"], group_rows)
            )
        if stats["workers"]:
            worker_rows = [
                [pid, round(seconds, 4)]
                for pid, seconds in sorted(
                    stats["workers"].items(), key=lambda kv: -kv[1]
                )
            ]
            tables.append(
                (f"run {rid}: worker busy seconds", ["worker", "seconds"], worker_rows)
            )
        if total == 0 and not stats["cache_hits"]:
            tables.append(
                (f"run {rid}: (no unit events)", ["field", "value"], [])
            )
    return tables


def tail_lines(
    events: Sequence[Mapping[str, Any]], count: int = 20
) -> List[str]:
    """The last *count* events, one compact human line each."""
    lines = []
    for event in list(events)[-count:]:
        ts = event.get("ts")
        stamp = f"{ts:.3f}" if isinstance(ts, (int, float)) else "?"
        name = event.get("event", "?")
        extras = []
        for key in ("run_id", "model", "replicate", "group", "status",
                    "seconds", "worker", "attempt"):
            if key in event:
                extras.append(f"{key}={event[key]}")
        lines.append(f"{stamp}  {name:<14} {' '.join(extras)}".rstrip())
    return lines


def load_trace_spans(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read a Chrome trace file back into span-ish dicts (name, start,
    duration seconds, pid/tid, args)."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    events = data.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError(f"{path}: not a Chrome trace (no traceEvents)")
    spans = []
    for event in events:
        if event.get("ph") != "X":
            continue
        spans.append(
            {
                "name": event.get("name", "?"),
                "start": float(event.get("ts", 0.0)) / 1e6,
                "duration": float(event.get("dur", 0.0)) / 1e6,
                "pid": event.get("pid", 0),
                "tid": event.get("tid", 0),
                "args": dict(event.get("args", {})),
            }
        )
    return spans


def span_aggregate(
    spans: Sequence[Mapping[str, Any]], top: int = 0
) -> Table:
    """Aggregate spans by name: count, total/mean/max seconds, total-share.

    *top* truncates to the heaviest names (0 = all).  Accepts the dicts
    from :func:`load_trace_spans` or ``Span.as_dict`` output.
    """
    agg: Dict[str, List[float]] = {}
    for span in spans:
        cell = agg.setdefault(str(span["name"]), [0, 0.0, 0.0])
        duration = float(span.get("duration", 0.0))
        cell[0] += 1
        cell[1] += duration
        cell[2] = max(cell[2], duration)
    total = sum(cell[1] for cell in agg.values()) or 1.0
    rows = [
        [
            name,
            int(count),
            round(total_s, 6),
            round(total_s / count, 6) if count else 0.0,
            round(max_s, 6),
            round(total_s / total, 4),
        ]
        for name, (count, total_s, max_s) in sorted(
            agg.items(), key=lambda kv: -kv[1][1]
        )
    ]
    if top:
        rows = rows[:top]
    headers = ["span", "count", "total_s", "mean_s", "max_s", "share"]
    return "span aggregate", headers, rows
