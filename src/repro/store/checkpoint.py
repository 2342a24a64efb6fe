"""Checkpointed chunked growth into a store.

:func:`grow_to_store` is the scale path for generation: the topology is
grown (the growth kernels batch their own draws) and flushed into
the SQLite store **every k nodes**, one transaction per chunk, with a
checkpoint row committed atomically alongside the chunk's rows.  The
chunking follows the graph's node insertion order — growth order, for
growth models — and each edge belongs to the chunk of its later-inserted
endpoint, so when chunk *j* commits, every row it references exists.

Crash-resume contract: re-running the same call against the same store

* skips regeneration entirely when the store is already complete (the
  stored fingerprint is the identity);
* otherwise regenerates deterministically (same model, params, n, seed,
  and — for the six families that once had a second growth kernel — the
  kernel, all recorded in the store's ``growth`` metadata and
  re-validated on resume), then re-ingests **only the chunks whose
  checkpoint rows are missing**.

The resumed store is bit-identical to a one-shot run — asserted by the
storage round-trip suite — because WAL-journaled SQLite rolls an
interrupted chunk back to the previous checkpoint, never half-applies it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..graph.graph import Graph
from ..obs.metrics import get_registry
from ..obs.tracer import get_tracer
from ..stats.rng import SeedLike
from .sqlite import SQLiteGraphStore, StoreError

__all__ = ["GrowthReport", "grow_to_store", "write_graph_chunks"]

PathLike = Union[str, Path]

#: Default flush interval for checkpointed growth.
DEFAULT_CHECKPOINT_EVERY = 50_000


@dataclass(frozen=True)
class GrowthReport:
    """What one :func:`grow_to_store` call did.

    ``chunks_written`` counts chunks ingested by this call;
    ``chunks_resumed`` counts chunks found already committed (crash
    resume); ``regenerated`` is False when the store was complete and the
    call returned without running the generator at all.
    """

    path: Path
    num_nodes: int
    num_edges: int
    fingerprint: int
    chunks_written: int
    chunks_resumed: int
    regenerated: bool
    seconds: float


def _growth_identity(generator, n: int, seed: SeedLike, every: int) -> Dict[str, Any]:
    """The provenance stamp that makes a resume verifiable.

    Mirrors the battery's cache identity: registry name + params, plus
    ``"engine": "vector"`` for ``engine_sensitive`` generators.  A store
    grown by one of their retired python kernels records ``"python"``, so
    its resume is refused instead of being continued by a kernel that
    builds a *different* graph.
    """
    identity: Dict[str, Any] = {
        "model": generator.name or type(generator).__name__,
        "params": generator.params(),
        "n": n,
        "seed": seed,
        "checkpoint_every": every,
    }
    if generator.engine_sensitive:
        identity["engine"] = generator.cache_params(n)["engine"]
    # Canonicalize through JSON so the identity compares equal to its own
    # meta-table round-trip (tuples become lists, keys sort).
    return json.loads(json.dumps(identity, sort_keys=True, default=repr))


def _chunk_edges(graph: Graph, positions: Dict, chunk_nodes: List) -> List:
    """Edges owned by *chunk_nodes*: each edge belongs to its
    later-inserted endpoint, so both rows it references already exist when
    the chunk's transaction commits."""
    rows = []
    for node in chunk_nodes:
        own = positions[node]
        for other, weight in graph.neighbor_weights(node).items():
            if positions[other] < own:
                rows.append((other, node, weight))
    return rows


def write_graph_chunks(
    db: SQLiteGraphStore,
    graph: Graph,
    every: Optional[int] = None,
    skip_committed: bool = False,
) -> Dict[str, int]:
    """Ingest *graph* into *db* in chunked, checkpointed transactions.

    Nodes flush in insertion order, ``every`` per chunk (None: one chunk);
    each chunk's transaction carries its node rows, its edge rows (edges
    whose later-inserted endpoint falls in the chunk), and its checkpoint
    row.  With *skip_committed*, chunks whose checkpoint row already
    exists are not re-ingested — the resume path.  Returns written/resumed
    chunk counts.

    Each ingested chunk runs under a ``store.chunk`` span and feeds the
    ``store.chunk.seconds`` histogram; written/resumed totals land on the
    ``store.chunks.written`` / ``store.chunks.resumed`` counters.
    """
    order = list(graph.nodes())
    positions = {node: i for i, node in enumerate(order)}
    n = len(order)
    if every is None or every <= 0:
        every = max(n, 1)
    committed = db.committed_chunks() if skip_committed else {}
    registry = get_registry()
    tracer = get_tracer()
    written = resumed = 0
    total_nodes = total_edges = 0
    for chunk, lo in enumerate(range(0, max(n, 1), every)):
        chunk_nodes = order[lo : lo + every]
        if chunk in committed:
            resumed += 1
            total_nodes, total_edges = committed[chunk]
            continue
        with tracer.span("store.chunk", chunk=chunk, nodes=len(chunk_nodes)):
            start = time.perf_counter()
            total_nodes += len(chunk_nodes)
            db.append_nodes(chunk_nodes)
            total_edges += db.append_edges(
                _chunk_edges(graph, positions, chunk_nodes)
            )
            db.record_checkpoint(chunk, total_nodes, total_edges)
            db.commit()
            registry.histogram("store.chunk.seconds").observe(
                time.perf_counter() - start
            )
        written += 1
    registry.counter("store.chunks.written").inc(written)
    registry.counter("store.chunks.resumed").inc(resumed)
    return {"written": written, "resumed": resumed}


def grow_to_store(
    generator,
    n: int,
    path: PathLike,
    seed: SeedLike = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    snapshot: bool = True,
) -> GrowthReport:
    """Grow ``generator.generate(n, seed)`` into the store at *path*.

    Complete store with a matching growth identity: returns immediately —
    the persisted topology is reused without regeneration.  Partial store
    (crash): the topology is regenerated deterministically and only the
    un-committed chunks are ingested.  A store grown under a *different*
    identity raises :class:`StoreError` rather than mixing topologies.

    On completion the store is stamped with the graph's fingerprint and —
    unless *snapshot* is False — the mmap CSR snapshot is written beside
    it, so measurement never needs the generator again.
    """
    from .store import GraphStore

    started = time.perf_counter()
    store = GraphStore(path)
    identity = _growth_identity(generator, n, seed, checkpoint_every)
    with SQLiteGraphStore(store.path) as db:
        recorded = db.get_meta("growth")
        if recorded is not None and recorded != identity:
            raise StoreError(
                f"{store.path} was grown with a different identity "
                f"({recorded}); refusing to mix topologies"
            )
        if recorded is None:
            if db.num_nodes:
                raise StoreError(
                    f"{store.path} already holds an ingested graph; "
                    f"grow_to_store needs a fresh or growth-owned store"
                )
            db.set_meta("growth", identity)
            db.commit()
        if db.get_meta("complete", False):
            return GrowthReport(
                path=store.path,
                num_nodes=db.num_nodes,
                num_edges=db.num_edges,
                fingerprint=db.get_meta("fingerprint"),
                chunks_written=0,
                chunks_resumed=len(db.committed_chunks()),
                regenerated=False,
                seconds=time.perf_counter() - started,
            )
        with get_tracer().span(
            "store.grow", model=identity["model"], n=n, path=str(store.path)
        ):
            graph = generator.generate(n, seed=seed)
            counts = write_graph_chunks(
                db, graph, every=checkpoint_every, skip_committed=True
            )
            fingerprint = graph.fingerprint()
            db.set_meta("name", graph.name)
            db.set_meta("fingerprint", fingerprint)
            db.set_meta("complete", True)
            db.commit()
    if snapshot:
        store.write_snapshot(graph.csr(), graph.name, fingerprint)
    return GrowthReport(
        path=store.path,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        fingerprint=fingerprint,
        chunks_written=counts["written"],
        chunks_resumed=counts["resumed"],
        regenerated=True,
        seconds=time.perf_counter() - started,
    )
