"""Structured JSONL run journal for battery executions.

Long calibration sweeps need an audit trail that survives crashes: which
unit ran where, how long it took, whether it came from the cache, and —
when something dies — the full traceback and the seed needed to reproduce
it.  :class:`RunJournal` appends one JSON object per line to a plain text
file; each event carries a wall-clock timestamp, the event name, the
current ``run_id``, and whatever structured fields the emitter attaches
(seed, cache key, duration, worker pid, attempt number, traceback,
per-group timings, peak RSS).

The journal is append-only and crash-safe: events are written through one
held, **line-buffered** handle (opened lazily on first emit), so every
line is flushed to the OS as it is written — a killed run leaves a
readable prefix — without paying an ``open``/``close`` syscall pair per
event the way the original implementation did (see
``benchmarks/bench_journal_emit.py`` for the measured difference).

Successive runs appended to the same ``--journal`` path are told apart by
**run ids**: :meth:`RunJournal.begin_run` derives a short stable-ish hash
from the run's configuration plus a monotonic start stamp, and every
subsequent event carries it.  :meth:`RunJournal.read` still returns the
flat event list; :meth:`RunJournal.read_runs` groups it back into one
event list per run (``repro journal summarize`` reports per run).

Event vocabulary used by :mod:`repro.core.battery` (emitters may add more).
Each attempt of a unit gets one ``unit_start``, then one ``unit_finish``,
``unit_retry`` or ``unit_fail``, with the same fields at every ``jobs``:

====================  =====================================================
event                 meaning
====================  =====================================================
``battery_start``     one :func:`run_battery` call began (models, n, seeds,
                      jobs, groups, timeout, retries)
``cache_hit``         a (unit, group) cell was served from the cache
``unit_start``        an attempt of a work unit was submitted (attempt
                      number, jobs)
``unit_finish``       the attempt completed (attempt number, duration,
                      worker pid, generation and per-group seconds, peak
                      RSS, CPU seconds)
``unit_retry``        a failed/timed-out attempt will be retried
``unit_fail``         a unit exhausted its attempts (status, traceback)
``pool_broken``       a worker process died abruptly (``in_flight``
                      units); the pool is rebuilt, and a unit is charged
                      only when it ran alone in its round
``battery_end``       the run finished (elapsed, failures, cache counters)
====================  =====================================================
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

__all__ = ["RunJournal", "NullJournal", "resolve_journal", "derive_run_id"]

JournalLike = Union[None, str, Path, "RunJournal", "NullJournal"]


def derive_run_id(config: Optional[Mapping[str, Any]] = None) -> str:
    """A short id for one run: hash of its configuration + monotonic start.

    The config part makes ids meaningful (same command → same prefix
    material), the monotonic-clock part makes two back-to-back identical
    runs distinct; the pid guards against clock-resolution collisions
    across concurrent processes appending to one journal.
    """
    basis = json.dumps(config or {}, sort_keys=True, default=repr)
    stamp = f"{basis}|{time.monotonic_ns()}|{os.getpid()}"
    return hashlib.sha256(stamp.encode("utf-8")).hexdigest()[:12]


class RunJournal:
    """Append-only JSONL event log at *path*.

    Each :meth:`emit` call writes one line ``{"ts": ..., "event": ...,
    "run_id": ..., **fields}`` through a held line-buffered handle (every
    line reaches the OS immediately, so the file is a faithful prefix of
    the run at any instant).  Values must be JSON-serializable; anything
    that is not is rendered through ``repr`` rather than failing the run —
    the journal must never be the thing that crashes a battery.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.run_id: Optional[str] = None
        self._handle = None

    def begin_run(self, config: Optional[Mapping[str, Any]] = None) -> str:
        """Start a new run: derive, store, and return its ``run_id``.

        Every event emitted after this call is stamped with the id, so
        runs accumulated in one file stay distinguishable.
        """
        self.run_id = derive_run_id(config)
        return self.run_id

    def _ensure_handle(self):
        if self._handle is None or self._handle.closed:
            # buffering=1: line-buffered, so each emitted line is flushed
            # on its trailing newline — crash-safe without reopening.
            self._handle = open(self.path, "a", encoding="utf-8", buffering=1)
        return self._handle

    def emit(self, event: str, **fields: Any) -> None:
        """Append one event line (timestamped, run-stamped, flushed)."""
        record: Dict[str, Any] = {"ts": round(time.time(), 6), "event": event}
        if self.run_id is not None:
            record["run_id"] = self.run_id
        record.update(fields)
        line = json.dumps(record, sort_keys=False, default=repr)
        self._ensure_handle().write(line + "\n")

    def close(self) -> None:
        """Release the held handle (emit reopens it if needed)."""
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown ordering
        try:
            self.close()
        except Exception:
            pass

    @classmethod
    def read(cls, path: Union[str, Path]) -> List[Dict[str, Any]]:
        """Parse a journal file back into a flat list of event dicts.

        A torn final line (the run was killed mid-write) is skipped rather
        than raising — the journal degrades to its valid prefix.
        """
        events: List[Dict[str, Any]] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
        return events

    @classmethod
    def read_runs(cls, path: Union[str, Path]) -> Dict[str, List[Dict[str, Any]]]:
        """Parse a journal and group its events by ``run_id``.

        Runs appear in first-seen order; events written before run
        stamping existed group under ``"-"``.
        """
        from ..obs.analysis import group_runs

        return group_runs(cls.read(path))

    def events(self) -> List[Dict[str, Any]]:
        """Events currently in this journal's file (empty if absent)."""
        if not self.path.exists():
            return []
        return self.read(self.path)

    def __repr__(self) -> str:
        return f"<RunJournal {self.path}>"


class NullJournal:
    """Journal-shaped no-op (journaling disabled)."""

    path: Optional[Path] = None
    run_id: Optional[str] = None

    def begin_run(self, config: Optional[Mapping[str, Any]] = None) -> str:
        """Derive an id (callers may report it) but record nothing."""
        self.run_id = derive_run_id(config)
        return self.run_id

    def emit(self, event: str, **fields: Any) -> None:
        """Discard the event."""

    def close(self) -> None:
        """Nothing to release."""

    def events(self) -> List[Dict[str, Any]]:
        """Always empty."""
        return []


def resolve_journal(journal: JournalLike) -> Union[RunJournal, NullJournal]:
    """Coerce the accepted journal specs: None → no-op, path → file journal,
    instance → itself."""
    if journal is None:
        return NullJournal()
    if isinstance(journal, (str, Path)):
        return RunJournal(journal)
    return journal
