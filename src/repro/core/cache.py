"""Content-addressed on-disk cache for battery results.

Each cell of the validation battery — one metric group of one (generator,
params, n, seed) topology — is a pure function of its inputs, so its value
can be cached under a canonical hash of those inputs and reused across
runs, experiments, and re-scorings against new targets.  The cache is a
directory of small JSON files, safe to delete wholesale at any time:
everything in it can be recomputed.

Robustness rules:

* writes are atomic (temp file + ``os.replace``), so a killed run never
  leaves a half-written entry visible;
* reads treat *any* malformed entry (truncated JSON, wrong schema, payload
  mismatch) as a miss, delete it, and count it in ``stats.corrupt`` — a
  corrupted cache degrades to recomputation, never to a crash or a wrong
  result;
* keys embed :data:`repro.core.metrics.METRICS_VERSION`, so numerically
  changing a metric implementation invalidates exactly the affected cells;
* an instance remembers, in memory, up to :data:`MEMORY_ENTRIES` entries
  it has verified on read (least recently used out first), so a repeat
  ``get`` in the same process opens no file.  Only a verified read enters
  this tier — never a ``put``, which drops any remembered copy of its key —
  and a remembered entry answers only a request whose payload compares
  equal to the one its file was verified against.  It cannot go stale: a
  key hashes every input, ``METRICS_VERSION`` included, so its file only
  ever holds that key's value or garbage, and garbage recomputes to the
  same value.  A remembered value therefore stays correct after its file
  is deleted or smashed; a new process reads the disk again.  Every answer
  is a fresh copy, so no caller can alter what the tier remembers.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..obs.metrics import get_registry
from ..obs.tracer import get_tracer

__all__ = ["CacheStats", "ResultCache", "NullCache", "canonical_key"]

#: How many verified reads one :class:`ResultCache` remembers in memory.
#: A remembered battery cell holds 2.0-3.4 KB (its payload echo, most of
#: it, and a flat dict of scalars), so a full tier holds at most ~14 MB.
MEMORY_ENTRIES = 4096


def canonical_key(payload: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of a canonical JSON rendering of *payload*.

    Dict keys are sorted and floats serialized via repr, so logically equal
    payloads hash identically across processes and platforms; any change to
    any component (generator name, params, seed, metric group, code
    version) changes the key.
    """
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting.

    A :class:`ResultCache` instance accumulates counters over its whole
    lifetime; callers that report per-run numbers (the battery runner)
    :meth:`snapshot` the counters at run start and report the
    :meth:`delta`, so sharing one cache object across successive runs
    never inflates the second run's reported hits/misses.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0

    def snapshot(self) -> "CacheStats":
        """An independent copy of the current counters."""
        return CacheStats(self.hits, self.misses, self.writes, self.corrupt)

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counters accumulated since the *since* snapshot was taken."""
        return CacheStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            writes=self.writes - since.writes,
            corrupt=self.corrupt - since.corrupt,
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet).

        The serving layer's ``/stats`` endpoint reports this as the
        steady-state health number: a warm service trends toward 1.0.
        """
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Counters as a plain dict (for report tables and notes)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "hit_rate": round(self.hit_rate, 6),
        }

    def __str__(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} "
            f"writes={self.writes} corrupt={self.corrupt}"
        )


class ResultCache:
    """Directory-backed store: canonical key → JSON value.

    Entries live at ``<root>/<key[:2]>/<key>.json`` (fan-out keeps any one
    directory small).  Each file stores ``{"payload": ..., "value": ...}``;
    the payload echo lets :meth:`get` verify the entry really belongs to
    the requested key.  Verified reads are remembered in memory (see the
    module docstring); one instance is safe to share between threads.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.stats = CacheStats()
        # key -> (payload the file was verified against, value), LRU order.
        self._memory: "OrderedDict[str, Tuple[Any, Any]]" = OrderedDict()
        self._memory_lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str, payload: Optional[Mapping[str, Any]] = None) -> Optional[Any]:
        """Return the cached value for *key*, or None (counted as a miss).

        Malformed or mismatched entries are deleted and counted in
        ``stats.corrupt`` as well as ``stats.misses``.  A remembered entry
        answers without opening its file and counts as a hit like any
        other (its ``cache.get`` span says ``tier="memory"``).
        """
        with get_tracer().span("cache.get", key=key[:12]) as span:
            with self._memory_lock:
                remembered = self._memory.get(key)
                if remembered is not None and remembered[0] == payload:
                    self._memory.move_to_end(key)
                else:
                    remembered = None
            if remembered is not None:
                return self._hit(span, "memory", remembered[1])
            path = self._path(key)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    entry = json.load(handle)
                if not isinstance(entry, dict) or "value" not in entry:
                    raise ValueError("malformed cache entry")
                if payload is not None and entry.get("payload") != _roundtrip(payload):
                    raise ValueError("cache entry payload mismatch")
            except FileNotFoundError:
                self.stats.misses += 1
                get_registry().counter("cache.miss").inc()
                span.set(outcome="miss")
                return None
            except (OSError, ValueError, KeyError):
                # Truncated/corrupt/foreign file: recompute rather than crash.
                self.stats.corrupt += 1
                self.stats.misses += 1
                registry = get_registry()
                registry.counter("cache.corrupt").inc()
                registry.counter("cache.miss").inc()
                span.set(outcome="corrupt")
                _evict(path)
                return None
            # The echo equals the round-tripped request payload, and unlike
            # the caller's payload no one else holds it.
            verified = None if payload is None else entry["payload"]
            with self._memory_lock:
                self._memory[key] = (verified, entry["value"])
                self._memory.move_to_end(key)
                while len(self._memory) > MEMORY_ENTRIES:
                    self._memory.popitem(last=False)
            return self._hit(span, "disk", entry["value"])

    def _hit(self, span, tier: str, value: Any) -> Any:
        self.stats.hits += 1
        get_registry().counter("cache.hit").inc()
        span.set(outcome="hit", tier=tier)
        return _fresh(value)

    def put(self, key: str, value: Any, payload: Optional[Mapping[str, Any]] = None) -> None:
        """Atomically store *value* under *key*."""
        path = self._path(key)
        with get_tracer().span("cache.put", key=key[:12]):
            with self._memory_lock:
                self._memory.pop(key, None)
            path.parent.mkdir(parents=True, exist_ok=True)
            entry = {"payload": _roundtrip(payload) if payload is not None else None,
                     "value": value}
            handle = tempfile.NamedTemporaryFile(
                "w", encoding="utf-8", dir=path.parent, suffix=".tmp", delete=False
            )
            try:
                with handle:
                    json.dump(entry, handle)
                os.replace(handle.name, path)
            except OSError:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
                raise
            self.stats.writes += 1
            get_registry().counter("cache.write").inc()


class NullCache:
    """Cache-shaped no-op (``--no-cache``): every get is a miss."""

    def __init__(self):
        self.stats = CacheStats()

    def get(self, key: str, payload: Optional[Mapping[str, Any]] = None) -> Optional[Any]:
        """Always a miss."""
        self.stats.misses += 1
        get_registry().counter("cache.miss").inc()
        return None

    def put(self, key: str, value: Any, payload: Optional[Mapping[str, Any]] = None) -> None:
        """Discard *value*."""
        pass


def _evict(path: Path) -> None:
    """Best-effort removal of a corrupt cache entry.

    Handles the entry path having been replaced by a *directory* (seen
    when a foreign tool collides with the cache layout): ``unlink`` alone
    would fail silently there and the entry would re-count as corrupt on
    every subsequent get.
    """
    try:
        path.unlink()
    except IsADirectoryError:
        shutil.rmtree(path, ignore_errors=True)
    except OSError:
        if path.is_dir():
            shutil.rmtree(path, ignore_errors=True)


def _fresh(value: Any) -> Any:
    """A copy of the JSON *value* that shares no dict or list with it
    (a third of ``copy.deepcopy``'s cost on a cell's flat dict)."""
    if isinstance(value, dict):
        value = dict(value)
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                value[key] = _fresh(item)
        return value
    if isinstance(value, list):
        return [_fresh(item) for item in value]
    return value


def _roundtrip(payload: Mapping[str, Any]) -> Any:
    """Payload as it looks after a JSON round-trip (tuples → lists, etc.),
    so stored payload echoes compare equal to freshly built ones."""
    return json.loads(json.dumps(payload, sort_keys=True, default=repr))
