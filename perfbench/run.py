"""The repository's benchmark: one command, four workloads.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload serve-hit --seed 7 --seconds 20 --trace 0

or every workload, each in a fresh process, with a summary table::

    python3 perfbench/run.py --seed 7

``--trace 1`` runs the traced variant: it prints the per-layer table and
the per-layer metrics instead of the end-to-end ones, and writes the
spans as a Chrome trace under ``.perfbench_out/``.  Take end-to-end
numbers only from untraced runs.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from typing import Any, Dict, List, Optional

import harness
from harness import BenchError
from workloads import END_TO_END, PER_LAYER, WORKLOADS

DEFAULT_SECONDS = 20


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def run_one(name: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    state = harness.STATE_DIR / f"{name}-s{seed}-{os.getpid()}"
    state.mkdir(parents=True)
    steal0, total0 = harness.cpu_jiffies()
    try:
        out = WORKLOADS[name](seed, seconds, trace, state)
        steal1, total1 = harness.cpu_jiffies()
        out.env["cpu_steal_share"] = round((steal1 - steal0) / max(total1 - total0, 1), 4)
    finally:
        shutil.rmtree(state, ignore_errors=True)
        try:
            harness.STATE_DIR.rmdir()
        except OSError:
            pass
    versions = {k: out.env.pop(k) for k in ("python", "numpy", "scipy") if k in out.env}
    env = harness.environment_record(versions, **out.env)
    print(f"workload {name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    for note in out.notes:
        print(note)
    if trace:
        for table in out.tables:
            print()
            print(table)
        print()
        _export_trace(name, seed, out.spans)
    chosen = PER_LAYER if trace else END_TO_END
    source = out.per_layer if trace else out.end_to_end
    width = max(len(metric) for metric, _ in chosen)
    for metric, unit in chosen:
        print(f"  {metric.ljust(width)}  {source[metric]:>14.6g} {unit}")
    return {
        "correct": out.correct,
        "attempted": out.tally.attempted,
        "failed": out.tally.failed,
        "metrics": {metric: {"value": source[metric], "unit": unit} for metric, unit in chosen},
    }


def _export_trace(name: str, seed: int, spans) -> None:
    if not spans:
        return
    sys.path.insert(0, str(harness.SRC))
    from repro.obs.exporters import export_chrome_trace

    path = export_chrome_trace(spans, harness.ROOT / ".perfbench_out" / f"{name}-seed{seed}.trace.json")
    print(f"trace: {path.relative_to(harness.ROOT)} ({len(spans)} spans)")


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own process; a table of their metrics."""
    results = {}
    for name in sorted(WORKLOADS):
        proc = subprocess.run(
            harness.python_cmd("run.py", "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)),
            stdout=subprocess.PIPE, text=True, cwd=harness.ROOT,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        print()
    chosen = PER_LAYER if trace else END_TO_END
    names = sorted(results)
    print("metric".ljust(34) + "".join(n.rjust(16) for n in names))
    for metric, unit in chosen:
        cells = "".join(f"{results[n]['metrics'][metric]['value']:>16.6g}" for n in names)
        print(f"{metric} ({unit})".ljust(34) + cells)
    print("correct".ljust(34) + "".join(str(results[n]["correct"]).rjust(16) for n in names))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not harness.program_present():
        print(f"perfbench: no program at {harness.SRC / 'repro'}; nothing to measure", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
