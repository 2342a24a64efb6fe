"""Zero-copy shared-graph transport for the parallel battery.

The battery's work units used to be welded to private topologies: every
(model, replicate) unit regenerated its graph inside its worker, so a
retry regenerated it, a cache-resume regenerated it, and a replicate's
metric groups could never run concurrently because they all lived inside
the one worker holding the graph.  This module decouples *producing* a
topology from *measuring* it:

* :func:`publish_graph` writes a generated (or store-loaded) graph once —
  as a fingerprint-stamped mmap CSR snapshot (the PR 7 on-disk format,
  staged to a spool directory that defaults to ``/dev/shm`` tmpfs when
  available) — and returns a small, picklable :class:`SharedGraphHandle`;
* :func:`attach_graph` reopens a handle read-only in any process.  The
  arrays are memory-mapped — nothing is pickled, nothing is
  regenerated, and the OS shares the physical pages between every
  attached worker.  A per-process attach cache keyed by the handle's
  fingerprint makes repeated attaches (one worker measuring many metric
  groups of the same topology) cost a dict lookup;
* :class:`SnapshotSpool` manages the published snapshots: content-keyed
  paths, probe-before-publish reuse (a generation that already ran —
  even in a previous battery run sharing the same cache directory — is
  never repeated), parent-side refcounts with unlink-at-zero for
  ephemeral spools, and ``.tmp`` staging reaping so a worker crash
  mid-publish never leaks half-written snapshots past a pool rebuild.

:func:`resolve_transport` centralizes the battery's transport choice
(``auto`` | ``regenerate`` | ``shared``): an explicit argument always
wins, ``auto`` consults the ``REPRO_TRANSPORT`` environment variable, and
otherwise shares at or above :data:`AUTO_SHARED_NODES` nodes when at
least :data:`AUTO_SHARED_GROUPS` metric groups ride on each replicate
(below that, publishing costs more than it saves).  Transport is a
*scheduling* choice, never a semantics choice: both transports produce
bit-identical battery results and identical cache cells.

:func:`resolve_mp_context` is the companion knob for the worker pools
themselves: every ``ProcessPoolExecutor`` in the battery, experiment,
and calibration layers receives an explicit multiprocessing context, so
pools (and the transport riding on them) behave identically under
``fork``, ``spawn``, and ``forkserver`` start methods.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..graph.csr import CSRView
from ..graph.graph import Graph
from ..obs.metrics import get_registry
from ..obs.tracer import get_tracer
from ..store.snapshot import load_csr_snapshot, save_csr_snapshot, snapshot_info

__all__ = [
    "SharedGraphHandle",
    "SnapshotSpool",
    "publish_graph",
    "attach_graph",
    "attach_view",
    "materialize_view",
    "resolve_transport",
    "resolve_mp_context",
    "clear_attach_cache",
    "TRANSPORTS",
    "AUTO_SHARED_NODES",
    "AUTO_SHARED_GROUPS",
    "REPRO_TRANSPORT_ENV",
    "REPRO_TRANSPORT_DIR_ENV",
    "REPRO_MP_START_ENV",
]

PathLike = Union[str, Path]

#: Accepted values for the battery's ``transport`` parameter.
TRANSPORTS = ("auto", "regenerate", "shared")

#: ``transport="auto"`` shares topologies at or above this many nodes.
AUTO_SHARED_NODES = 2000

#: ...and only when a replicate carries at least this many metric groups
#: (publishing a snapshot for a single-group unit saves nothing).
AUTO_SHARED_GROUPS = 2

#: Environment variable consulted by ``transport="auto"`` (values:
#: ``regenerate``, ``shared``, or ``auto``); explicit arguments win.
REPRO_TRANSPORT_ENV = "REPRO_TRANSPORT"

#: Overrides where ephemeral spools stage their snapshots (default:
#: ``/dev/shm`` when present — tmpfs, so "disk" pages are shared memory —
#: else the system temp dir).
REPRO_TRANSPORT_DIR_ENV = "REPRO_TRANSPORT_DIR"

#: Multiprocessing start method for every battery/experiment/calibration
#: pool (values: ``fork``, ``spawn``, ``forkserver``); empty means the
#: platform default.  Explicit ``mp_context`` arguments win.
REPRO_MP_START_ENV = "REPRO_MP_START"


def resolve_transport(transport: str = "auto", n: int = 0, groups: int = 1) -> str:
    """Resolve a ``transport`` argument to ``"regenerate"`` or ``"shared"``.

    Explicit choices pass through (after validation).  ``"auto"`` defers
    first to the ``REPRO_TRANSPORT`` environment variable — which lets CI
    force shared transport across an unmodified suite — then shares when
    *n* ≥ :data:`AUTO_SHARED_NODES` and *groups* ≥
    :data:`AUTO_SHARED_GROUPS`.
    """
    if transport not in TRANSPORTS:
        choices = ", ".join(TRANSPORTS)
        raise ValueError(
            f"unknown transport {transport!r}; choose one of: {choices}"
        )
    if transport != "auto":
        return transport
    env = os.environ.get(REPRO_TRANSPORT_ENV, "").strip().lower()
    if env in ("regenerate", "shared"):
        return env
    if env not in ("", "auto"):
        choices = ", ".join(TRANSPORTS)
        raise ValueError(
            f"invalid {REPRO_TRANSPORT_ENV}={env!r}; choose one of: {choices}"
        )
    if n >= AUTO_SHARED_NODES and groups >= AUTO_SHARED_GROUPS:
        return "shared"
    return "regenerate"


def resolve_mp_context(context=None):
    """Resolve an ``mp_context`` argument to an explicit multiprocessing
    context object.

    *context* may be a context object (returned as-is), a start-method
    name (``"fork"`` / ``"spawn"`` / ``"forkserver"``), or ``None`` —
    which consults the ``REPRO_MP_START`` environment variable and falls
    back to the platform default.  Passing the result into every
    ``ProcessPoolExecutor`` pins the start method explicitly, so a host
    that changes its default (or a CI job forcing ``spawn``) runs the
    same pools the tests exercised.
    """
    if context is None:
        context = os.environ.get(REPRO_MP_START_ENV, "").strip().lower() or None
    if context is None:
        return multiprocessing.get_context()
    if isinstance(context, str):
        try:
            return multiprocessing.get_context(context)
        except ValueError:
            known = ", ".join(multiprocessing.get_all_start_methods())
            raise ValueError(
                f"unknown multiprocessing start method {context!r}; "
                f"choose one of: {known}"
            ) from None
    return context


# --------------------------------------------------------------------------
# Handles


@dataclass(frozen=True)
class SharedGraphHandle:
    """A picklable claim ticket for one published topology.

    The handle is what travels to workers instead of the graph: the
    snapshot directory, and enough identity — content fingerprint, name,
    counts, shared byte size — to key per-process attach caches and
    battery telemetry without touching the arrays.
    """

    location: str
    fingerprint: int
    name: str = ""
    num_nodes: int = 0
    num_edges: int = 0
    nbytes: int = 0


def unlink_shared(handle: SharedGraphHandle) -> None:
    """Release a publication's backing storage (publisher-side).

    The snapshot directory is removed.  Attached processes that already
    hold mappings keep them (POSIX unlink semantics); new attaches fail.
    """
    _evict_attached(handle)
    shutil.rmtree(handle.location, ignore_errors=True)


# --------------------------------------------------------------------------
# Publish / attach


def publish_graph(
    graph: Graph,
    path: Optional[PathLike] = None,
    name: Optional[str] = None,
) -> SharedGraphHandle:
    """Publish *graph* once for any number of read-only attachers.

    Stages a fingerprint-stamped mmap CSR snapshot at *path* (a fresh
    temp directory when omitted) and returns the picklable
    :class:`SharedGraphHandle` that :func:`attach_graph` accepts in any
    process.
    """
    label = name if name is not None else graph.name
    fingerprint = graph.fingerprint()
    registry = get_registry()
    with get_tracer().span("transport.publish", n=graph.num_nodes) as span:
        if path is None:
            path = Path(tempfile.mkdtemp(prefix="repro-transport-")) / "graph"
        path = Path(path)
        save_csr_snapshot(path, graph.csr(), name=label, fingerprint=fingerprint)
        nbytes = sum(f.stat().st_size for f in path.iterdir() if f.is_file())
        span.set(bytes=nbytes, fingerprint=fingerprint)
    registry.counter("transport.published").inc()
    registry.counter("transport.bytes_shared").inc(nbytes)
    return SharedGraphHandle(
        location=str(path),
        fingerprint=fingerprint,
        name=label,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        nbytes=nbytes,
    )


def handle_for_snapshot(path: PathLike) -> SharedGraphHandle:
    """Wrap an existing on-disk CSR snapshot (e.g. a
    :class:`~repro.store.store.GraphStore`'s) as an attachable handle."""
    meta = snapshot_info(path)
    return SharedGraphHandle(
        location=str(Path(path)),
        fingerprint=meta.get("fingerprint") or 0,
        name=meta.get("name", ""),
        num_nodes=int(meta["num_nodes"]),
        num_edges=int(meta["num_edges"]),
        nbytes=sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file()),
    )


def materialize_view(
    view: CSRView, name: str = "", fingerprint: Optional[int] = None
) -> Graph:
    """Rebuild a :class:`Graph` from a (possibly shared) CSR view.

    The reconstruction is exact *including node iteration order* — nodes
    enter in view position order and edges in row order — so seeded
    algorithms that walk or sample the node list (path sampling, victim
    orders) behave bit-identically on the rebuilt graph.  The view is
    pre-seeded as the graph's cached CSR view (its arrays are what a
    rebuild would produce, row-sorted), so the metric kernels run on the
    shared pages directly; a known *fingerprint* is pre-seeded too,
    making cache probes on the attached graph a dict lookup.
    """
    graph = Graph(name=name)
    nodes = view.nodes
    graph.add_nodes(nodes)
    us, vs, ws = view.edge_arrays()
    if isinstance(nodes, range):
        graph.add_edges(zip(us.tolist(), vs.tolist(), ws.tolist()))
    else:
        graph.add_edges(
            (nodes[u], nodes[v], w)
            for u, v, w in zip(us.tolist(), vs.tolist(), ws.tolist())
        )
    graph._csr_cache = (graph._version, view)
    if fingerprint:
        graph._fingerprint_cache = (graph._version, fingerprint)
    return graph


#: Per-process attach cache: (location, fingerprint) → cached attachment.
#: Bounded — a worker cycling through many topologies holds at most this
#: many materialized graphs.
_ATTACH_CACHE_SIZE = 4
_attach_cache: "OrderedDict[Tuple[str, int], Dict[str, Any]]" = OrderedDict()


def _attach_entry(handle: SharedGraphHandle) -> Dict[str, Any]:
    key = (handle.location, handle.fingerprint)
    entry = _attach_cache.get(key)
    registry = get_registry()
    if entry is not None:
        _attach_cache.move_to_end(key)
        registry.counter("transport.attach.cached").inc()
        return entry
    with get_tracer().span("transport.attach", n=handle.num_nodes) as span:
        view = load_csr_snapshot(handle.location)
        span.set(bytes=handle.nbytes, fingerprint=handle.fingerprint)
    registry.counter("transport.attach.opened").inc()
    entry = {
        "view": view,
        "graph": None,
        "name": handle.name,
        "fingerprint": handle.fingerprint,
    }
    _attach_cache[key] = entry
    while len(_attach_cache) > _ATTACH_CACHE_SIZE:
        _attach_cache.popitem(last=False)
        registry.counter("transport.attach.evicted").inc()
    return entry


def attach_view(handle: SharedGraphHandle) -> CSRView:
    """Attach to a publication and return its shared, read-only
    :class:`CSRView` (memory-mapped; nothing is copied)."""
    return _attach_entry(handle)["view"]


def attach_graph(handle: SharedGraphHandle) -> Graph:
    """Attach to a publication as a full :class:`Graph`.

    The adjacency is materialized from the shared arrays at most once
    per process per publication (then served from the attach cache), and
    the graph's CSR view *is* the shared arrays — kernels never rebuild
    them.  The result must be treated as read-only: it is shared with
    every later caller in this process.
    """
    entry = _attach_entry(handle)
    if entry["graph"] is None:
        entry["graph"] = materialize_view(
            entry["view"], name=entry["name"], fingerprint=entry["fingerprint"]
        )
    return entry["graph"]


def _evict_attached(handle: SharedGraphHandle) -> None:
    _attach_cache.pop((handle.location, handle.fingerprint), None)


def clear_attach_cache() -> None:
    """Drop every cached attachment in this process (tests, teardown)."""
    _attach_cache.clear()


# --------------------------------------------------------------------------
# Spool


def _default_spool_parent() -> str:
    configured = os.environ.get(REPRO_TRANSPORT_DIR_ENV, "").strip()
    if configured:
        return configured
    if os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK):
        return "/dev/shm"
    return tempfile.gettempdir()


class SnapshotSpool:
    """A directory of content-keyed published snapshots.

    Two modes share one implementation:

    * **ephemeral** (no *root*): a fresh temp directory — under tmpfs
      when available — that :meth:`cleanup` removes wholesale at the end
      of the run;
    * **persistent** (*root* given, e.g. ``<cache-dir>/snapshots``):
      snapshots outlive the run, so a later battery sharing the cache
      directory *attaches* instead of regenerating — this is what makes
      generations O(1) per (model, seed) across resumes, not just within
      one run.  Like the :class:`~repro.core.cache.ResultCache` it sits
      beside, the directory is safe to delete wholesale at any time.

    Publications are refcounted parent-side: :meth:`probe`/:meth:`publish`
    acquire, :meth:`release` decrements, and an ephemeral spool unlinks a
    snapshot the moment its count reaches zero.
    """

    def __init__(self, root: Optional[PathLike] = None):
        self.persistent = root is not None
        if root is None:
            root = tempfile.mkdtemp(
                prefix="repro-spool-", dir=_default_spool_parent()
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._refs: Dict[str, int] = {}
        self._handles: Dict[str, SharedGraphHandle] = {}

    def path_for(self, key: str) -> Path:
        """Where the snapshot for *key* lives (fan-out like the cache)."""
        return self.root / key[:2] / key

    def probe(self, key: str) -> Optional[SharedGraphHandle]:
        """A handle for *key*'s already-published snapshot, or ``None``.

        A truncated/corrupt/foreign directory is evicted and counted as a
        miss — the spool degrades to republication, never to a crash.  So
        is a remembered handle whose directory has since been deleted (the
        spool is safe to delete wholesale at any time): its bookkeeping is
        dropped and the probe falls through to the missing snapshot.
        """
        path = self.path_for(key)
        registry = get_registry()
        if key in self._handles and not path.is_dir():
            del self._handles[key], self._refs[key]
        if key in self._handles:
            self._refs[key] += 1
            registry.counter("transport.snapshot.hits").inc()
            return self._handles[key]
        try:
            handle = handle_for_snapshot(path)
        except FileNotFoundError:
            registry.counter("transport.snapshot.misses").inc()
            return None
        except ValueError:
            shutil.rmtree(path, ignore_errors=True)
            registry.counter("transport.snapshot.corrupt").inc()
            registry.counter("transport.snapshot.misses").inc()
            return None
        registry.counter("transport.snapshot.hits").inc()
        self._remember(key, handle)
        return handle

    def publish(self, graph: Graph, key: str, name: str = "") -> SharedGraphHandle:
        """Publish *graph* under *key* (atomic; safe to call from workers).

        The parent's refcount bookkeeping only happens when the publish
        runs in the spool-owning process; worker-side publishes are
        adopted by the parent via :meth:`adopt`.
        """
        handle = publish_graph(graph, self.path_for(key), name=name)
        self._remember(key, handle)
        return handle

    def adopt(self, key: str, handle: SharedGraphHandle) -> None:
        """Register a worker-published *handle* in this (parent) spool's
        refcounts, so :meth:`release` governs its lifetime."""
        self._remember(key, handle)

    def _remember(self, key: str, handle: SharedGraphHandle) -> None:
        if key in self._handles:
            self._refs[key] += 1
        else:
            self._handles[key] = handle
            self._refs[key] = 1

    def release(self, key: str) -> None:
        """Drop one reference; unlink the snapshot at zero (ephemeral only)."""
        if key not in self._refs:
            return
        self._refs[key] -= 1
        if self._refs[key] <= 0:
            handle = self._handles.pop(key)
            del self._refs[key]
            if not self.persistent:
                unlink_shared(handle)

    def reap_staging(self) -> int:
        """Remove orphaned ``.tmp`` staging directories (crashed publishes).

        Called when the battery rebuilds a broken pool and again at run
        end: a worker that died mid-:func:`save_csr_snapshot` leaves only
        a ``.tmp`` sibling, which no complete snapshot ever keeps.
        """
        reaped = 0
        if not self.root.is_dir():
            return reaped
        for fanout in self.root.iterdir():
            if not fanout.is_dir():
                continue
            for entry in fanout.iterdir():
                if entry.name.endswith(".tmp"):
                    shutil.rmtree(entry, ignore_errors=True)
                    reaped += 1
        if reaped:
            get_registry().counter("transport.staging.reaped").inc(reaped)
        return reaped

    def cleanup(self) -> None:
        """End-of-run teardown: reap staging, then remove an ephemeral
        spool's directory wholesale (persistent spools are kept)."""
        self.reap_staging()
        self._refs.clear()
        self._handles.clear()
        if not self.persistent:
            shutil.rmtree(self.root, ignore_errors=True)

    def __repr__(self) -> str:
        kind = "persistent" if self.persistent else "ephemeral"
        return f"<SnapshotSpool {kind} root={self.root}>"
