"""Batching dispatcher: the serving layer's perf core.

A :class:`ServeDispatcher` owns everything long-lived about the service:

* a **warm** :class:`~repro.core.battery.WorkerPool` — spawned once at
  startup and reused for every request, so each worker process keeps its
  per-process transport attach cache hot and a steady-state request never
  re-imports, re-forks, or re-pickles anything but its task dict;
* a persistent :class:`~repro.core.cache.ResultCache` and
  :class:`~repro.core.transport.SnapshotSpool` under one service root, so
  repeat requests are cache reads and repeat topologies are mmap attaches
  with **zero generations**;
* a **hit path**: :meth:`ServeDispatcher.submit` probes a ``summarize``
  request's cells on the thread that received it (in the service, its
  HTTP thread), and when every group is cached answers it there — after
  the first read of a cell, from the cache's memory tier — so a cached
  request costs no queue hop and no dispatcher thread;
* a bounded job queue drained by dispatcher threads, which takes only
  requests with work to do (a ``summarize`` with pending groups, carrying
  its probe result; every ``generate``, ``compare`` and world op) and
  rejects excess load (:class:`ServeBusy` → HTTP 503) instead of building
  an unbounded backlog, so a full queue sheds compute only;
* a **request coalescer**: in-flight requests are content-addressed on
  the same canonical payloads as battery cache cells
  (:func:`repro.core.battery.cell_payload`), so a thundering herd of
  identical ``summarize(model, n, seed)`` calls collapses onto one
  computation whose result fans out to every waiter
  (``serve.coalesce.hits`` counts the collapsed arrivals).  A request is
  in flight from its coalescing check until its future resolves: for a
  cached ``summarize`` that window is its probe;
* a second, finer coalescer on topology **generations**
  (:func:`repro.core.battery.generation_payload` keys), so two distinct
  requests needing the same not-yet-spooled topology trigger one
  generation, not two.

Requests run the battery's own cell pipeline (:mod:`repro.core.battery`,
``plan_cells`` through ``settle_unit``) and containment loop
(``WorkerPool.run``), micro-batched: all of a request's pending metric
groups ride one ``measure`` unit against one shared attached view, never
one unit per group.

Startup calls :meth:`SnapshotSpool.reap_staging`, so staging directories
orphaned by a killed server process are removed the next time the
service starts (not only on mid-run pool rebuilds).
"""

from __future__ import annotations

import queue
import re
import shutil
import tempfile
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.battery import (
    SUMMARIZE_DEFAULTS,
    CellPlan,
    WorkerPool,
    cell_spool,
    plan_cells,
    probe_cells,
    replicate_seed,
    settle_unit,
    summarize_target,
    topology_task,
    unit_task,
)
from ..core.cache import ResultCache, canonical_key
from ..core.compare import compare_summaries
from ..core.journal import resolve_journal
from ..core.metrics import ALL_METRIC_GROUPS, METRIC_GROUPS, TopologySummary
from ..core.registry import make_generator
from ..core.transport import handle_for_snapshot
from ..obs.metrics import get_registry
from ..obs.tracer import get_tracer
from ..store.sqlite import StoreError
from ..store.store import GraphStore
from ..store.world import StoredTopologyGenerator

__all__ = ["ServeDispatcher", "ServeBusy", "ServeError", "WORLD_ID_PATTERN"]


class ServeError(ValueError):
    """A request the service understood enough to reject (HTTP 400)."""


class ServeBusy(RuntimeError):
    """The bounded job queue is full; shed load (HTTP 503)."""


#: Valid world ids: path-safe, no traversal, at most 64 characters.
WORLD_ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")

DEFAULT_QUEUE_LIMIT = 64


class _Flight:
    """One in-flight request; later identical arrivals share the future."""

    __slots__ = ("future", "waiters")

    def __init__(self) -> None:
        self.future: Future = Future()
        self.waiters = 1


def _coerce_int(value: Any, name: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ServeError(f"{name} must be an integer, got {value!r}")


class ServeDispatcher:
    """The service's request broker (see module docstring).

    Parameters
    ----------
    jobs:
        Warm worker-pool size (processes, spawned once at startup).  Even
        at ``jobs=1`` units run in a worker process, never inline as a
        jobs=1 battery's do: a hung unit stays abandonable, and no unit
        competes with the HTTP threads for the GIL.  Workers start by
        the ``REPRO_MP_START`` method, else the platform default.
    root:
        Service state directory — result cache cells under ``cells/``,
        with the snapshot spool beside them under ``cells/snapshots/``
        (exactly where a battery over ``cells/`` spools), named worlds
        under ``worlds/``.  A private temp directory (removed at shutdown)
        when omitted.
    queue_limit:
        Bounded job-queue depth; submits with work to do beyond it raise
        :class:`ServeBusy` (a cached ``summarize`` never queues).
    threads:
        Dispatcher threads draining the queue (default: ``jobs``).
    unit_timeout / retries:
        Per-task containment — the battery's own loop,
        :meth:`~repro.core.battery.WorkerPool.run`: a failed or timed-out
        unit is retried, a hung or broken pool is rebuilt (reaping spool
        staging), and a unit that stays dead fails only its request.
    """

    def __init__(
        self,
        jobs: int = 2,
        root: Union[None, str, Path] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        threads: Optional[int] = None,
        journal=None,
        unit_timeout: Optional[float] = None,
        retries: int = 1,
        start: bool = True,
        prewarm: bool = True,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self._owns_root = root is None
        self.root = Path(
            tempfile.mkdtemp(prefix="repro-serve-") if root is None else root
        )
        self.cache = ResultCache(self.root / "cells")
        self.spool = cell_spool(self.cache)
        # Satellite of ISSUE 10: a killed server leaves half-published
        # staging dirs behind; reap them at every service start, not only
        # on mid-run pool rebuilds.
        self.reaped_at_start = self.spool.reap_staging()
        self.worlds_dir = self.root / "worlds"
        self.worlds_dir.mkdir(parents=True, exist_ok=True)
        self.unit_timeout = unit_timeout
        self.retries = retries
        self.pool = WorkerPool(jobs)
        self.journal = resolve_journal(journal)
        self.run_id = self.journal.begin_run(
            {"serve": True, "jobs": jobs, "root": str(self.root)}
        )
        self.journal.emit(
            "serve_start", jobs=jobs, queue_limit=queue_limit,
            reaped_staging=self.reaped_at_start,
            mp_start=self.pool.mp_context.get_start_method(),
        )
        self.started = time.monotonic()
        self._lock = threading.Lock()
        self._inflight: Dict[str, _Flight] = {}
        self._gen_inflight: Dict[str, Future] = {}
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_limit)
        self._threads: List[threading.Thread] = []
        self._stopped = False
        thread_count = threads if threads is not None else max(2, jobs)
        if prewarm:
            get_registry().gauge("serve.workers").set(self.pool.prewarm())
        if start:
            self.start(thread_count)
        else:
            self._thread_count = thread_count

    # ------------------------------------------------------------ lifecycle

    def start(self, threads: Optional[int] = None) -> None:
        """Start the dispatcher threads (idempotent)."""
        if self._threads:
            return
        count = threads if threads is not None else getattr(self, "_thread_count", 2)
        for i in range(count):
            thread = threading.Thread(
                target=self._drain, name=f"serve-dispatch-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def shutdown(self) -> None:
        """Stop dispatcher threads, release the pool, close the journal."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=5)
        self.pool.shutdown(wait=True)
        self.journal.emit("serve_stop", uptime=round(self.uptime, 3))
        self.journal.close()
        if self._owns_root:
            shutil.rmtree(self.root, ignore_errors=True)

    @property
    def uptime(self) -> float:
        """Seconds since the dispatcher started."""
        return time.monotonic() - self.started

    # ----------------------------------------------------- submit / coalesce

    def submit(self, op: str, params: Optional[Mapping[str, Any]] = None) -> Future:
        """Answer or enqueue one request; returns the (possibly shared) future.

        Normalization (model resolution, cell-key derivation) happens
        here, synchronously, so a malformed request fails fast with
        :class:`ServeError` and never occupies queue space.  An identical
        in-flight request absorbs this one: the caller gets the existing
        future and ``serve.coalesce.hits`` is incremented.  A ``summarize``
        then probes its cells on the calling thread; with every group
        cached it is answered there and the returned future is already
        done.  Only a request with work to do takes queue space, so only
        such a request is shed (:class:`ServeBusy`) when the queue is full.
        """
        plan = self._plan(op, dict(params or {}))
        key = plan["key"]
        registry = get_registry()
        with self._lock:
            if self._stopped:
                raise ServeBusy("service is shutting down")
            flight = self._inflight.get(key)
            if flight is not None:
                flight.waiters += 1
                registry.counter("serve.coalesce.hits").inc()
                return flight.future
            # Registered before the probe, so identical arrivals during it
            # coalesce onto this flight.
            flight = _Flight()
            self._inflight[key] = flight
        if op == "summarize":
            started = time.perf_counter()
            try:
                plan["cached"] = probe_cells(plan["plan"], self.cache)
            except BaseException as exc:
                self._abandon(key, flight, exc)
                raise
            if not plan["plan"].pending:
                self._answer(key, plan, flight, started, queued=False)
                return flight.future
        try:
            self._queue.put_nowait((key, plan, flight))
        except queue.Full:
            registry.counter("serve.rejected").inc()
            busy = ServeBusy(
                f"job queue full ({self._queue.maxsize} pending); retry later"
            )
            self._abandon(key, flight, busy)
            raise busy
        registry.counter("serve.enqueued").inc()
        registry.gauge("serve.queue.depth").set(self._queue.qsize())
        return flight.future

    def call(
        self,
        op: str,
        params: Optional[Mapping[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Synchronous :meth:`submit` + wait."""
        return self.submit(op, params).result(timeout)

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            key, plan, flight = item
            get_registry().gauge("serve.queue.depth").set(self._queue.qsize())
            self._answer(key, plan, flight, time.perf_counter(), queued=True)

    def _answer(
        self, key: str, plan: Dict[str, Any], flight: _Flight,
        started: float, queued: bool,
    ) -> None:
        """Execute *plan* and settle its flight, on whichever thread holds
        it: the calling thread for a cached ``summarize``, else a
        dispatcher thread (*queued*, recorded on the ``serve.request``
        span and the journal event).  ``serve.request.seconds`` counts
        from *started*, so a cached answer's includes its probe."""
        registry = get_registry()
        op = plan["op"]
        with get_tracer().span("serve.request", op=op, key=key[:12], queued=queued):
            try:
                result = self._execute(plan)
            except Exception as exc:
                registry.counter("serve.errors").inc()
                self.journal.emit(
                    "serve_request_fail", op=op, error=repr(exc), queued=queued
                )
                flight.future.set_exception(exc)
            else:
                elapsed = time.perf_counter() - started
                registry.counter("serve.requests").inc()
                registry.counter(f"serve.requests.{op}").inc()
                registry.histogram("serve.request.seconds").observe(elapsed)
                self.journal.emit(
                    "serve_request", op=op, seconds=round(elapsed, 6),
                    waiters=flight.waiters, queued=queued,
                )
                flight.future.set_result(result)
        # Pop only after the future resolves: identical arrivals in
        # the window between resolution and pop still coalesce onto
        # the already-resolved future (an immediate hit).
        with self._lock:
            self._inflight.pop(key, None)

    def _abandon(self, key: str, flight: _Flight, exc: BaseException) -> None:
        """Fail a flight that never reached execution: every waiter that
        coalesced onto it gets *exc*, and the key is free again."""
        flight.future.set_exception(exc)
        with self._lock:
            self._inflight.pop(key, None)

    # -------------------------------------------------------------- planning

    def _plan(self, op: str, params: Dict[str, Any]) -> Dict[str, Any]:
        """Validate and normalize a request into an executable plan whose
        coalescing key is content-addressed on battery cell keys."""
        if op in ("summarize", "generate", "compare"):
            groups = params.get("groups")
            if op == "compare" and groups:
                raise ServeError("compare scores the full battery; omit groups")
            plan = self._summarize_plan(params, groups)
            if op == "generate":
                body = {"generation": plan.gen_key}
            else:
                body = {"cells": sorted(k for k, _ in plan.cells.values())}
            return {
                "op": op,
                "plan": plan,
                "key": canonical_key(dict(body, kind="serve-request", op=op)),
            }
        if op == "world_save":
            world = self._world_id(params)
            spec = {
                "model": str(params.get("model", "")),
                "n": _coerce_int(params.get("n", 0), "n"),
                "seed": _coerce_int(params.get("seed", 0), "seed"),
                "params": dict(params.get("params") or {}),
                "checkpoint_every": params.get("checkpoint_every"),
            }
            if not spec["model"]:
                raise ServeError("world_save requires a model")
            if spec["n"] < 1:
                raise ServeError("world_save requires n >= 1")
            return {
                "op": op,
                "world": world,
                "spec": spec,
                "key": canonical_key(
                    {"kind": "serve-request", "op": op, "world": world, "spec": spec}
                ),
            }
        if op in ("world_info", "world_summary", "world_list", "world_summarize"):
            world = self._world_id(params) if op != "world_list" else ""
            seed = _coerce_int(params.get("seed", 0), "seed")
            return {
                "op": op,
                "world": world,
                "seed": seed,
                "groups": self._groups(params.get("groups")),
                "key": canonical_key(
                    {
                        "kind": "serve-request", "op": op, "world": world,
                        "seed": seed, "groups": list(self._groups(params.get("groups"))),
                    }
                ),
            }
        raise ServeError(f"unknown operation {op!r}")

    def _groups(self, groups: Optional[Sequence[str]]) -> Tuple[str, ...]:
        if groups is None or groups == "":
            return tuple(METRIC_GROUPS)
        if isinstance(groups, str):
            groups = [g for g in groups.split(",") if g]
        unknown = [g for g in groups if g not in ALL_METRIC_GROUPS]
        if unknown:
            known = ", ".join(ALL_METRIC_GROUPS)
            raise ServeError(f"unknown metric group(s) {unknown!r}; available: {known}")
        return tuple(groups)

    def _world_id(self, params: Mapping[str, Any]) -> str:
        world = str(params.get("world", ""))
        if not WORLD_ID_PATTERN.fullmatch(world):
            raise ServeError(
                f"invalid world id {world!r} (want {WORLD_ID_PATTERN.pattern})"
            )
        return world

    def _summarize_plan(
        self, params: Mapping[str, Any], groups: Optional[Sequence[str]]
    ) -> CellPlan:
        model = params.get("model")
        if not model:
            raise ServeError("request requires a model")
        n = _coerce_int(params.get("n", 0), "n")
        if n < 1:
            raise ServeError("request requires n >= 1")
        gen_params = dict(params.get("params") or {})
        try:
            generator = make_generator(str(model), **gen_params)
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(f"cannot build model {model!r}: {exc}")
        if "replicate" in params:
            # Battery-compatible addressing: the battery's own seed for
            # this replicate, so served cells and battery cells are
            # literally the same cache entries.
            seed = replicate_seed(
                generator, n,
                _coerce_int(params.get("base_seed", 17), "base_seed"),
                _coerce_int(params["replicate"], "replicate"),
            )
        else:
            seed = _coerce_int(params.get("seed", 0), "seed")
        return plan_cells(
            generator, n, seed, self._groups(groups), SUMMARIZE_DEFAULTS,
            label=str(model),
        )

    # ------------------------------------------------------------- execution

    def _execute(self, plan: Dict[str, Any]) -> Dict[str, Any]:
        op = plan["op"]
        if op == "summarize":
            return self._execute_summarize(plan["plan"], plan["cached"])
        if op == "generate":
            return self._execute_generate(plan["plan"])
        if op == "compare":
            return self._execute_compare(plan["plan"])
        if op == "world_save":
            return self._execute_world_save(plan["world"], plan["spec"])
        if op == "world_list":
            return self._execute_world_list()
        if op == "world_info":
            return self._execute_world_info(plan["world"])
        if op == "world_summary":
            return self._execute_world_summary(plan["world"])
        if op == "world_summarize":
            return self._execute_world_summarize(
                plan["world"], plan["seed"], plan["groups"]
            )
        raise ServeError(f"unknown operation {op!r}")  # pragma: no cover

    def _run(self, plan: CellPlan, task: Dict[str, Any]) -> None:
        """Run one unit on the warm pool through the battery's containment
        loop and settle it into *plan*; a unit still dead after its
        retries fails the request with the worker's message."""
        (outcome,) = self.pool.run(
            [task], self.unit_timeout, self.retries, self.journal,
            on_rebuild=self._on_rebuild,
        )
        if not settle_unit(plan, outcome, self.cache, self.spool):
            message = outcome.error.strip().splitlines()[-1]
            raise RuntimeError(
                f"{task['unit']['kind']} unit {outcome.status}: {message}"
            )

    def _on_rebuild(self) -> None:
        get_registry().counter("serve.pool.rebuilds").inc()
        self.spool.reap_staging()

    def _ensure_handle(self, plan: CellPlan) -> bool:
        """Set ``plan.handle``, generating the topology at most once.

        Concurrent callers needing the same not-yet-spooled topology
        coalesce on the generation key; the loser(s) attach the winner's
        published snapshot.  The leader releases its spool reference at
        once: the service spool is persistent, so a reference pins only
        bookkeeping.  Returns whether this call generated.
        """
        registry = get_registry()
        with self._lock:
            flight = self._gen_inflight.get(plan.gen_key)
            if flight is None:
                flight = Future()
                self._gen_inflight[plan.gen_key] = flight
                leader = True
            else:
                leader = False
        if not leader:
            registry.counter("serve.coalesce.generations").inc()
            plan.handle = flight.result(self.unit_timeout)
            return False
        try:
            task = topology_task(plan, self.spool)
            if task is None:
                registry.counter("serve.generations.cached").inc()
            else:
                self._run(plan, task)
                registry.counter("serve.generations.computed").inc()
                self.journal.emit(
                    "serve_generation", model=plan.label, n=plan.n,
                    seed=plan.seed, key=plan.gen_key,
                )
            self.spool.release(plan.gen_key)
            flight.set_result(plan.handle)
            return task is not None
        except BaseException as exc:
            flight.set_exception(exc)
            raise
        finally:
            with self._lock:
                self._gen_inflight.pop(plan.gen_key, None)

    def _execute_summarize(
        self, plan: CellPlan, cached: List[str],
        world_store: Optional[GraphStore] = None,
    ) -> Dict[str, Any]:
        """Measure every pending group of a probed *plan* (*cached* names
        its hit groups) in one unit against the plan's topology — the
        spool's (generated at most once), or the *world_store*'s own mmap
        snapshot."""
        registry = get_registry()
        registry.counter("serve.cells.cached").inc(len(cached))
        generated = False
        if plan.pending:
            if world_store is not None:
                world_store.csr()  # ensure the sidecar snapshot exists and is fresh
                plan.handle = handle_for_snapshot(world_store.snapshot_path)
            else:
                generated = self._ensure_handle(plan)
            self._run(plan, unit_task(plan, plan.pending, SUMMARIZE_DEFAULTS))
            registry.counter("serve.cells.computed").inc(len(plan.pending))
        return {
            "model": plan.label,
            "n": plan.n,
            "seed": plan.seed,
            "groups": list(plan.cells),
            "cached_groups": cached,
            "computed_groups": sorted(plan.pending),
            "generated": int(generated),
            "values": plan.merged(),
        }

    def _execute_generate(self, plan: CellPlan) -> Dict[str, Any]:
        generated = self._ensure_handle(plan)
        handle = plan.handle
        return {
            "model": plan.label,
            "n": plan.n,
            "seed": plan.seed,
            "generated": int(generated),
            "num_nodes": handle.num_nodes,
            "num_edges": handle.num_edges,
            "fingerprint": handle.fingerprint,
            "nbytes": handle.nbytes,
        }

    def _execute_compare(self, plan: CellPlan) -> Dict[str, Any]:
        # The reference-map target caches through the same store as the
        # model cells (see summarize_target), so a warm compare is pure
        # cache reads; the model summary runs inline here — never through
        # our own queue — so compare can't starve the dispatcher threads.
        with get_tracer().span("serve.target", n=plan.n):
            target = summarize_target(None, plan.n, self.cache, SUMMARIZE_DEFAULTS)
        summary_result = self._execute_summarize(plan, probe_cells(plan, self.cache))
        summary = TopologySummary.from_dict(plan.label, summary_result["values"])
        comparison = compare_summaries(summary, target)
        return {
            "model": plan.label,
            "n": plan.n,
            "seed": plan.seed,
            "score": comparison.score,
            "target": target.name,
            "generated": summary_result["generated"],
            "rows": [
                {
                    "metric": row.metric,
                    "model": row.model_value,
                    "target": row.target_value,
                    "penalty": row.penalty,
                }
                for row in comparison.rows
            ],
        }

    # ---------------------------------------------------------------- worlds

    def _world_path(self, world: str) -> Path:
        return self.worlds_dir / f"{world}.db"

    def _execute_world_save(self, world: str, spec: Dict[str, Any]) -> Dict[str, Any]:
        try:
            generator = make_generator(spec["model"], **spec["params"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(f"cannot build model {spec['model']!r}: {exc}")
        path = self._world_path(world)
        report = generator.generate_to_store(
            spec["n"], path, seed=spec["seed"],
            checkpoint_every=spec["checkpoint_every"],
        )
        get_registry().counter("serve.worlds.saved").inc()
        self.journal.emit(
            "serve_world_save", world=world, model=spec["model"], n=spec["n"],
            regenerated=report.regenerated,
        )
        info = GraphStore.open(path).info()
        return {
            "world": world,
            "model": spec["model"],
            "regenerated": bool(report.regenerated),
            "chunks_written": report.chunks_written,
            "chunks_resumed": report.chunks_resumed,
            "info": info,
        }

    def _execute_world_list(self) -> Dict[str, Any]:
        worlds = []
        for path in sorted(self.worlds_dir.glob("*.db")):
            entry: Dict[str, Any] = {"world": path.stem}
            try:
                info = GraphStore.open(path).info()
                entry.update(
                    num_nodes=info.get("num_nodes"),
                    num_edges=info.get("num_edges"),
                    complete=info.get("complete"),
                    snapshot=info.get("snapshot"),
                )
            except StoreError as exc:
                entry["error"] = str(exc)
            worlds.append(entry)
        return {"worlds": worlds}

    def _open_world(self, world: str) -> GraphStore:
        path = self._world_path(world)
        if not path.is_file():
            raise KeyError(f"no world {world!r}")
        return GraphStore.open(path)

    def _execute_world_info(self, world: str) -> Dict[str, Any]:
        return {"world": world, "info": self._open_world(world).info()}

    def _execute_world_summary(self, world: str) -> Dict[str, Any]:
        # The out-of-core read path: the size group straight from the
        # store's mmap CSR view, no Graph materialized anywhere.
        values = self._open_world(world).measure()
        return {"world": world, "values": values}

    def _execute_world_summarize(
        self, world: str, seed: int, groups: Tuple[str, ...]
    ) -> Dict[str, Any]:
        """Full metric groups for a stored world on the warm pool.

        Cells are keyed on the stored graph's fingerprint (the
        :class:`StoredTopologyGenerator` identity), and the topology
        reaches the workers as the store's own mmap snapshot wrapped in a
        shared handle — zero copies, zero generations.
        """
        store = self._open_world(world)
        generator = StoredTopologyGenerator(store.path)
        plan = plan_cells(
            generator, generator.num_nodes, seed, groups, SUMMARIZE_DEFAULTS,
            label=f"world-{world}",
        )
        result = self._execute_summarize(
            plan, probe_cells(plan, self.cache), world_store=store
        )
        del result["model"]
        return {"world": world, **result}

    # ----------------------------------------------------------------- stats

    def stats(self) -> Dict[str, Any]:
        """Service health: queue, coalescing, cache, pool, counters."""
        snapshot = get_registry().snapshot()
        counters = snapshot.get("counters", {})
        return {
            "uptime_seconds": round(self.uptime, 3),
            "jobs": self.pool.jobs,
            "queue_depth": self._queue.qsize(),
            "queue_limit": self._queue.maxsize,
            "inflight": len(self._inflight),
            "pool_rebuilds": self.pool.rebuilds,
            "reaped_at_start": self.reaped_at_start,
            "cache": self.cache.stats.as_dict(),
            "counters": {
                name: value
                for name, value in sorted(counters.items())
                if name.split(".")[0]
                in ("serve", "battery", "cache", "transport", "generator")
            },
        }
