"""Out-of-core graph storage.

Every graph elsewhere in :mod:`repro` lives in memory; this package is the
disk-backed counterpart that makes million-node topologies practical to
grow, persist, reopen, and measure without regeneration:

* :class:`SQLiteGraphStore` — the durable representation: ``nodes`` /
  ``edges`` tables with covering indices, bulk ``executemany`` ingestion
  fed by :meth:`repro.graph.graph.Graph.add_edges`-shaped batches, and WAL
  journaling so a killed run never corrupts the file;
* :mod:`repro.store.snapshot` — a memory-mapped CSR snapshot
  (``indptr``/``indices``/``weights`` ``.npy`` arrays in ``numpy.lib.
  format`` plus node↔index maps) that reopens as a
  :class:`repro.graph.csr.CSRView` at near-zero resident memory;
* :class:`GraphStore` — the facade tying both together
  (``open``/``save``/``load``/``csr``/``measure``/``info``);
* :func:`grow_to_store` — checkpointed chunked growth: flush every *k*
  nodes inside one SQLite transaction each, resume from the last committed
  checkpoint after a crash;
* :class:`StoredTopologyGenerator` — a stored world as a battery model,
  so :class:`repro.core.cache.ResultCache` cells key on the stored graph's
  fingerprint.

See ``docs/storage.md`` for the full tour.
"""

from .checkpoint import GrowthReport, grow_to_store
from .snapshot import (
    load_csr_snapshot,
    save_csr_snapshot,
    snapshot_info,
)
from .sqlite import SQLiteGraphStore, StoreError
from .store import GraphStore
from .world import StoredTopologyGenerator

__all__ = [
    "GraphStore",
    "SQLiteGraphStore",
    "StoreError",
    "StoredTopologyGenerator",
    "GrowthReport",
    "grow_to_store",
    "save_csr_snapshot",
    "load_csr_snapshot",
    "snapshot_info",
]
