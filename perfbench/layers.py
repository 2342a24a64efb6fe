"""Span → layer attribution and the per-layer table.

Layer names are the program's module names.  A span belongs to the
layer whose public function it times; the benchmark's own op spans
(``request``, ``op``, ``direct``) belong to none, so their self time is
the end-to-end time no layer row covers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import benchmath as bm

#: Op spans recorded by the benchmark around each end-to-end operation.
OP_SPANS = ("request", "op", "direct", "compare")

_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("dispatcher.", "serve.dispatcher"),
    ("cache.", "core.cache"),
    ("battery", "core.battery"),
    ("unit", "core.battery"),
    ("target.summarize", "core.battery"),
    ("score", "core.battery"),
    ("generate", "generators"),
    ("generator.", "generators"),
    ("transport.", "core.transport"),
    ("giant", "core.metrics"),
    ("metric.", "core.metrics"),
    ("store.", "store"),
)


def layer_of(name: str) -> Optional[str]:
    """The layer a span name belongs to (None for op spans)."""
    if name in OP_SPANS:
        return None
    for prefix, layer in _PREFIXES:
        if name.startswith(prefix):
            return layer
    return "other"


def roots(spans: Iterable[Mapping]) -> List[str]:
    """Ids of the op spans."""
    return [s["span_id"] for s in spans if s["name"] in OP_SPANS]


def span_rows(spans: Sequence[Mapping]) -> List[List]:
    """One row per span name: layer, count, total ms, self ms, errors."""
    own = bm.self_times(spans)
    agg: Dict[str, List[float]] = {}
    for span in spans:
        row = agg.setdefault(span["name"], [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += span["duration"]
        row[2] += own[span["span_id"]]
        row[3] += 1 if span.get("attrs", {}).get("error") else 0
    rows = [
        [layer_of(name) or "(op)", name, int(c), total * 1e3, self_s * 1e3, int(err)]
        for name, (c, total, self_s, err) in agg.items()
    ]
    rows.sort(key=lambda r: (r[0] == "(op)", r[0], -r[4]))
    return rows


def layer_self_seconds(spans: Sequence[Mapping]) -> Dict[str, float]:
    """Self time summed per layer, in seconds."""
    own = bm.self_times(spans)
    out: Dict[str, float] = {}
    for span in spans:
        layer = layer_of(span["name"]) or "(unattributed)"
        out[layer] = out.get(layer, 0.0) + own[span["span_id"]]
    return out


def durations(spans: Iterable[Mapping], name: str) -> List[float]:
    return [s["duration"] for s in spans if s["name"] == name]


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str) -> str:
    cells = [[_cell(v) for v in row] for row in rows]
    widths = [max([len(h)] + [len(r[i]) for r in cells]) for i, h in enumerate(headers)]
    lines = [title, "  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}" if abs(value) < 1e6 else f"{value:.0f}"
    return str(value)
