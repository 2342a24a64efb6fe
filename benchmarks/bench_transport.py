"""Benchmark: shared-graph transport vs per-unit regeneration.

The transport's economic case (ISSUE 9): once a topology is published,
adding a metric dimension must not re-pay generation.  The workload here
is the worst honest case for regeneration — a multi-pass, groups-split
battery over generation-heavy models (brite, albert-barabasi) at n=3000
with exact path metrics, where each pass measures one new metric group
over the same (model, seed) topologies; ``REPRO_TRANSPORT`` forces the
transport, since one-group passes would otherwise resolve to regenerate.
Under ``regenerate`` every pass regenerates every topology; under
``shared`` the first pass publishes snapshots into the cache-resident
spool and every later pass attaches, so generation is paid exactly once
per (model, seed) — which the run journal proves, and the floors in
``perf_floors.json`` gate (speedup >= 2x, generations per unit == 1).

Results are required to be bit-identical between transports, pass by
pass — the speedup may be hardware-bound, the values never are.
"""

import json
import time

from repro.core import METRIC_GROUPS, run_battery
from repro.core.transport import REPRO_TRANSPORT_ENV

MODELS = ["brite", "albert-barabasi"]
N = 3000
SEEDS = 1
JOBS = 4
# One metric group per pass: the "add a dimension later" access pattern.
PASSES = [[group] for group in METRIC_GROUPS]
# Exact paths: no sampling shortcuts at this n.
KWARGS = dict(
    n=N, seeds=SEEDS, jobs=JOBS, path_sample_threshold=N + 1000, min_tail=20
)


def _run_passes(monkeypatch, transport, cache_dir, journal=None):
    """Run the groups-split passes under one transport; return
    (total wall seconds, per-pass summary dicts)."""
    monkeypatch.setenv(REPRO_TRANSPORT_ENV, transport)
    summaries = []
    start = time.perf_counter()
    for groups in PASSES:
        battery = run_battery(
            MODELS, cache=cache_dir, groups=groups, journal=journal, **KWARGS,
        )
        assert not battery.failures
        assert battery.transport == transport
        summaries.append(
            {
                entry.model: [s.as_dict() for s in entry.summaries]
                for entry in battery.entries
            }
        )
    return time.perf_counter() - start, summaries


def test_transport_speedup(perf, record_text, tmp_path, monkeypatch):
    journal = tmp_path / "journal.jsonl"
    regen_seconds, regen_values = _run_passes(
        monkeypatch, "regenerate", tmp_path / "regen-cache"
    )
    shared_seconds, shared_values = _run_passes(
        monkeypatch, "shared", tmp_path / "shared-cache", journal=journal
    )
    assert shared_values == regen_values  # bit-identical, pass by pass

    # Journal-verified generation economics: one generation per
    # (model, seed) across ALL passes, snapshot hits for the rest.
    events = [
        json.loads(line)
        for line in journal.read_text(encoding="utf-8").splitlines()
    ]
    gen_starts = [
        e for e in events
        if e["event"] == "unit_start" and e.get("kind") == "generate"
    ]
    hits = [e for e in events if e["event"] == "snapshot_hit"]
    units = len(MODELS) * SEEDS
    assert sorted(set((e["model"], e["seed"]) for e in gen_starts)) == sorted(
        (e["model"], e["seed"]) for e in gen_starts
    )
    speedup = regen_seconds / shared_seconds
    perf.params.update(models=",".join(MODELS), n=N, seeds=SEEDS, jobs=JOBS)
    perf.values["speedup"] = speedup
    perf.values["regenerate_seconds"] = regen_seconds
    perf.values["shared_seconds"] = shared_seconds
    perf.values["generations_per_unit"] = len(gen_starts) / units
    perf.values["snapshot_hits"] = len(hits)

    lines = [
        f"shared-transport speedup on a groups-split battery "
        f"({len(PASSES)} passes x {units} topologies, n={N}, jobs={JOBS}, "
        f"exact paths)",
        f"  regenerate: {regen_seconds:8.2f}s  "
        f"({len(PASSES) * units} generations)",
        f"  shared:     {shared_seconds:8.2f}s  "
        f"({len(gen_starts)} generations, {len(hits)} snapshot hits)",
        f"  speedup:    {speedup:8.2f}x",
    ]
    record_text("transport.txt", "\n".join(lines))
