"""Memory-mapped CSR snapshots.

A snapshot is a directory of plain ``numpy.lib.format`` arrays plus two
small JSON sidecars::

    <dir>/
      meta.json      format version, counts, name, fingerprint, node mode
      indptr.npy     int64[n+1]
      indices.npy    int64[2E]   (sorted per row)
      weights.npy    float64[2E]
      nodes.json     node ids in position order (absent in "range" mode)

:func:`load_csr_snapshot` reopens the arrays with ``mmap_mode="r"`` and
wraps them in a :class:`repro.graph.csr.CSRView`, so every CSR metric
kernel (PR 4) and the T5 percolation sweeps (PR 6) run against the file
pages directly: resident memory stays near zero until a kernel touches
pages, and nothing is rebuilt.  When the node ids are exactly their
positions (``0..n-1`` — what every relabeled or generator-grown graph
has), ``meta.json`` records ``"nodes": "range"`` and the view carries a
``range`` object instead of a million-entry list.

Snapshots are written atomically: arrays land in a ``<dir>.tmp``
sibling that is renamed into place, so a crash mid-write never leaves a
half-readable snapshot where a complete one is expected.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

from ..graph.csr import CSRView
from ..obs.metrics import get_registry

__all__ = [
    "save_csr_snapshot",
    "load_csr_snapshot",
    "snapshot_info",
    "SNAPSHOT_FORMAT",
]

PathLike = Union[str, Path]

#: Bump when the on-disk snapshot layout changes.
SNAPSHOT_FORMAT = 1


def _nodes_are_positions(nodes: Sequence) -> bool:
    return all(
        isinstance(node, int) and node == i for i, node in enumerate(nodes)
    )


def save_csr_snapshot(
    path: PathLike,
    view: CSRView,
    name: str = "",
    fingerprint: Optional[int] = None,
) -> Path:
    """Write *view* as a mmap-openable snapshot directory at *path*.

    An existing snapshot at *path* is replaced atomically (build into a
    ``.tmp`` sibling, then rename).  *fingerprint* and *name* are stamped
    into ``meta.json`` so consumers can key caches on the snapshot without
    loading the graph.  A missing parent directory is created, a missing
    grandparent is not (``FileNotFoundError``): a spool's fan-out appears
    on demand, but a removed spool root stays removed, so a publish that
    outlives its run cannot recreate the spool it was writing into.
    """
    path = Path(path)
    staging = path.with_name(path.name + ".tmp")
    if staging.exists():
        shutil.rmtree(staging)
    path.parent.mkdir(exist_ok=True)
    staging.mkdir()
    np.save(staging / "indptr.npy", np.asarray(view.indptr, dtype=np.int64))
    np.save(staging / "indices.npy", np.asarray(view.indices, dtype=np.int64))
    np.save(staging / "weights.npy", np.asarray(view.weights, dtype=np.float64))
    if _nodes_are_positions(view.nodes):
        node_mode = "range"
    else:
        node_mode = "json"
        (staging / "nodes.json").write_text(
            json.dumps(list(view.nodes)), encoding="utf-8"
        )
    meta = {
        "format": SNAPSHOT_FORMAT,
        "num_nodes": view.num_nodes,
        "num_edges": view.num_edges,
        "name": name,
        "fingerprint": fingerprint,
        "nodes": node_mode,
    }
    (staging / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    written = sum(f.stat().st_size for f in staging.iterdir() if f.is_file())
    get_registry().counter("store.snapshot.bytes_written").inc(written)
    if path.exists():
        shutil.rmtree(path)
    os.replace(staging, path)
    return path


def snapshot_info(path: PathLike) -> Dict[str, Any]:
    """Parse and validate a snapshot's ``meta.json``.

    Raises ``FileNotFoundError`` when no snapshot directory exists and
    ``ValueError`` for a truncated/foreign/unsupported one — callers that
    can rebuild (the :class:`~repro.store.store.GraphStore` facade) treat
    both as "rebuild the snapshot".
    """
    path = Path(path)
    meta_path = path / "meta.json"
    if not path.is_dir() or not meta_path.is_file():
        raise FileNotFoundError(f"no CSR snapshot at {path}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"unreadable snapshot metadata at {meta_path}: {exc}")
    if not isinstance(meta, dict) or meta.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(
            f"snapshot at {path} has unsupported format "
            f"{meta.get('format') if isinstance(meta, dict) else meta!r}"
        )
    return meta


def load_csr_snapshot(path: PathLike) -> CSRView:
    """Reopen a snapshot as a memory-mapped :class:`CSRView`.

    Arrays are ``np.load(..., mmap_mode="r")`` memmaps — read-only,
    page-faulted on demand — and the node sequence is a ``range`` in
    ``"range"`` mode, so opening a million-node snapshot costs a few
    kilobytes of resident memory plus the ``degrees`` diff array.
    """
    path = Path(path)
    meta = snapshot_info(path)
    try:
        indptr = np.load(path / "indptr.npy", mmap_mode="r")
        indices = np.load(path / "indices.npy", mmap_mode="r")
        weights = np.load(path / "weights.npy", mmap_mode="r")
    except (OSError, ValueError) as exc:
        raise ValueError(f"unreadable snapshot arrays at {path}: {exc}")
    n = int(meta["num_nodes"])
    if len(indptr) != n + 1 or len(indices) != len(weights):
        raise ValueError(f"snapshot arrays at {path} disagree with meta.json")
    if meta["nodes"] == "range":
        nodes: Sequence = range(n)
    else:
        nodes = json.loads((path / "nodes.json").read_text(encoding="utf-8"))
        if len(nodes) != n:
            raise ValueError(
                f"snapshot node map at {path} disagrees with meta.json"
            )
    get_registry().counter("store.snapshot.attach").inc()
    return CSRView(indptr, indices, weights, nodes)
