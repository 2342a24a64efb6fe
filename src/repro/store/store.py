"""The ``GraphStore`` facade: one durable topology, two representations.

A store lives at ``<path>`` (a SQLite database, the source of truth) with
an optional mmap CSR snapshot directory at ``<path>.csr`` beside it.  The
facade keeps the two coherent through the stored fingerprint: ``csr()``
reuses the snapshot only when its stamped fingerprint matches the
database's, and rebuilds it otherwise — a stale or torn snapshot can
never be observed.

Typical flows::

    GraphStore(path).save(graph)              # persist (+ snapshot)
    graph = GraphStore.open(path).load()      # reopen in memory
    view = GraphStore.open(path).csr()        # reopen as mmap CSRView
    GraphStore.open(path).measure()           # "size" group, view-only
    generator.generate_to_store(n, path)      # checkpointed growth

``save`` accepts ``checkpoint_every`` to ingest in chunked transactions
(see :mod:`repro.store.checkpoint`); ``measure`` runs the battery's
``size`` metric group without materializing a ``Graph`` — the near-zero
RSS read path the full-scale benchmarks budget-test.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..graph.csr import CSRView
from ..graph.graph import Graph
from ..obs.tracer import get_tracer
from .snapshot import load_csr_snapshot, save_csr_snapshot, snapshot_info
from .sqlite import SQLiteGraphStore, StoreError

__all__ = ["GraphStore"]

PathLike = Union[str, Path]


class GraphStore:
    """Disk-backed graph at *path* (SQLite DB + sidecar CSR snapshot)."""

    def __init__(self, path: PathLike):
        self.path = Path(path)

    @property
    def snapshot_path(self) -> Path:
        """The sidecar mmap-CSR snapshot directory (may not exist yet)."""
        return self.path.with_name(self.path.name + ".csr")

    @classmethod
    def open(cls, path: PathLike) -> "GraphStore":
        """A store that must already exist (raises :class:`StoreError`)."""
        store = cls(path)
        if not store.path.is_file():
            raise StoreError(f"no graph store at {store.path}")
        return store

    def exists(self) -> bool:
        """Whether the SQLite database file is present."""
        return self.path.is_file()

    # ----------------------------------------------------------------- write

    def save(
        self,
        graph: Graph,
        checkpoint_every: Optional[int] = None,
        snapshot: bool = True,
    ) -> Dict[str, Any]:
        """Persist *graph* into the store; returns :meth:`info`.

        The database is written in bulk (or in ``checkpoint_every``-node
        chunked transactions when given), stamped with the graph's
        fingerprint, and — unless *snapshot* is False — the mmap CSR
        snapshot is written beside it from the graph's cached
        :meth:`~repro.graph.graph.Graph.csr` view.  Saving over an
        existing store replaces its content only if the database is empty
        or fingerprints match; anything else raises, because silently
        merging two topologies is never what a caller wants.
        """
        from .checkpoint import write_graph_chunks

        fingerprint = graph.fingerprint()
        with get_tracer().span(
            "store.save", path=str(self.path), n=graph.num_nodes
        ):
            with SQLiteGraphStore(self.path) as db:
                existing = db.get_meta("fingerprint")
                if db.num_nodes and existing not in (None, fingerprint):
                    raise StoreError(
                        f"{self.path} already holds a different graph "
                        f"(fingerprint {existing}); delete it or save "
                        f"elsewhere"
                    )
                if existing == fingerprint and db.get_meta("complete", False):
                    # Identical content already on disk: re-ingesting would
                    # double upserted weights, so just refresh the sidecar.
                    if snapshot:
                        self.write_snapshot(graph.csr(), graph.name, fingerprint)
                    return self.info()
                write_graph_chunks(db, graph, every=checkpoint_every)
                db.set_meta("name", graph.name)
                db.set_meta("fingerprint", fingerprint)
                db.set_meta("complete", True)
                db.commit()
            if snapshot:
                self.write_snapshot(graph.csr(), graph.name, fingerprint)
            return self.info()

    def write_snapshot(
        self, view: CSRView, name: str, fingerprint: Optional[int]
    ) -> Path:
        """(Re)write the sidecar snapshot from *view*."""
        with get_tracer().span("store.snapshot", path=str(self.snapshot_path)):
            return save_csr_snapshot(
                self.snapshot_path, view, name=name, fingerprint=fingerprint
            )

    # ------------------------------------------------------------------ read

    def load(self, name: str = "") -> Graph:
        """Materialize the stored graph in memory."""
        with get_tracer().span("store.load", path=str(self.path)):
            with SQLiteGraphStore(self.path, create=False) as db:
                return db.load_graph(name=name)

    def csr(self) -> CSRView:
        """The store as a memory-mapped :class:`CSRView`.

        Reuses the sidecar snapshot when its stamped fingerprint matches
        the database's; otherwise (no snapshot, torn snapshot, fingerprint
        drift) rebuilds it from the edge tables first.  The returned view
        is backed by read-only memmaps either way.
        """
        fingerprint = self.fingerprint()
        try:
            meta = snapshot_info(self.snapshot_path)
            if meta.get("fingerprint") == fingerprint:
                return load_csr_snapshot(self.snapshot_path)
        except (FileNotFoundError, ValueError):
            pass
        with get_tracer().span("store.csr_rebuild", path=str(self.path)):
            with SQLiteGraphStore(self.path, create=False) as db:
                indptr, indices, weights, ids = db.csr_arrays()
                name = db.get_meta("name", "")
            view = CSRView(indptr, indices, weights, ids)
            self.write_snapshot(view, name, fingerprint)
        return load_csr_snapshot(self.snapshot_path)

    def measure(self) -> Dict[str, float]:
        """The battery's ``size`` metric group from the mmap view alone.

        Runs :func:`~repro.core.metrics.compute_metric_groups` on the view:
        the battery's giant mask, then degree arithmetic under it.  Never
        materializes a :class:`Graph` or slices the view: this is the read
        path whose peak RSS the full-scale benchmarks hold to a budget.
        """
        # Lazy: repro.core imports the store (snapshots) at module level.
        from ..core.metrics import compute_metric_groups

        with get_tracer().span("store.measure", path=str(self.path)):
            return compute_metric_groups(self.csr(), ["size"])["size"]

    def fingerprint(self) -> Optional[int]:
        """The stored graph's fingerprint (None while incomplete)."""
        with SQLiteGraphStore(self.path, create=False) as db:
            return db.get_meta("fingerprint")

    def info(self) -> Dict[str, Any]:
        """Store summary: counts, fingerprint, checkpoint/snapshot state."""
        with SQLiteGraphStore(self.path, create=False) as db:
            info = db.info()
        try:
            meta = snapshot_info(self.snapshot_path)
            info["snapshot"] = (
                "fresh" if meta.get("fingerprint") == info["fingerprint"]
                else "stale"
            )
        except FileNotFoundError:
            info["snapshot"] = "absent"
        except ValueError:
            info["snapshot"] = "corrupt"
        return info

    def __repr__(self) -> str:
        return f"<GraphStore {self.path}>"
