"""The arithmetic behind every number the benchmark reports.

Pure functions only (no I/O, no clocks), so ``tests/test_benchmath.py``
can pin each rule down:

* nearest-rank percentiles and the tail rule (a tail percentile needs at
  least ``MIN_BEYOND`` samples above it);
* open-loop timing: latency from an op's *due* time, lateness of the send,
  and the part of that lateness that is the generator's own fault;
* the outcome tally behind ``ok_share`` (503s, errors and wrong values
  all count against it);
* span self time (duration minus the union of its children's coverage)
  and the unattributed remainder of the op spans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10

#: Percentile steps a workload's tail may be lowered through, highest first.
TAIL_STEPS: Tuple[float, ...] = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least *q*
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values: Sequence[float]) -> float:
    """The nearest-rank 50th percentile (always an observed sample)."""
    return percentile(values, 50.0)


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples lie above the nearest-rank *q*-th."""
    return count - max(math.ceil(q / 100.0 * count), 1)


def tail_percentile(count: int, preferred: float) -> float:
    """The highest step at or below *preferred* that leaves at least
    :data:`MIN_BEYOND` samples beyond it (``ValueError`` when none does)."""
    for q in TAIL_STEPS:
        if q <= preferred and samples_beyond(count, q) >= MIN_BEYOND:
            return q
    raise ValueError(
        f"{count} samples leave fewer than {MIN_BEYOND} beyond any tail step"
    )


# ------------------------------------------------------------ open-loop timing


@dataclass(frozen=True)
class Timing:
    """One op of a load phase, in seconds on one monotonic clock.

    ``due`` is when the schedule wanted the op sent, ``sent``/``done``
    bracket the request, and ``free`` is when the connection it rode on
    finished its previous op (the earliest it could have been sent).  In a
    closed loop ``due == free == sent``.
    """

    due: float
    sent: float
    done: float
    free: float

    @property
    def latency(self) -> float:
        """Time from due to done: a stall also delays the ops queued
        behind it, and that wait counts."""
        return self.done - self.due

    @property
    def round_trip(self) -> float:
        """Time on the wire and in the server: sent to done."""
        return self.done - self.sent

    @property
    def lateness(self) -> float:
        """How late the op was sent (server backlog plus generator)."""
        return max(0.0, self.sent - self.due)

    @property
    def generator_lateness(self) -> float:
        """The part of the lateness the generator caused: time past the
        moment both the schedule and the connection allowed the send."""
        return max(0.0, self.sent - max(self.due, self.free))


# ------------------------------------------------------------------- outcomes

OK, REJECTED, ERROR, WRONG = "ok", "rejected", "error", "wrong"


def classify(status: Optional[int], value_ok: bool) -> str:
    """Outcome of one op: a 503 is ``rejected``; no response or any other
    non-200 status is an ``error``; a 200 whose value failed its check is
    ``wrong``."""
    if status == 503:
        return REJECTED
    if status != 200:
        return ERROR
    return OK if value_ok else WRONG


@dataclass
class Tally:
    """Counts of op outcomes; ``ok_share`` is ok over attempted."""

    counts: Dict[str, int] = field(
        default_factory=lambda: {OK: 0, REJECTED: 0, ERROR: 0, WRONG: 0}
    )

    def add(self, outcome: str, times: int = 1) -> None:
        self.counts[outcome] += times

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        """Ops that produced no usable answer (refused or errored)."""
        return self.counts[REJECTED] + self.counts[ERROR]

    @property
    def wrong(self) -> int:
        return self.counts[WRONG]

    @property
    def ok_share(self) -> float:
        attempted = self.attempted
        return self.counts[OK] / attempted if attempted else 0.0


def same_values(left: Mapping[str, float], right: Mapping[str, float]) -> bool:
    """Bit-for-bit equality of two metric dicts, with NaN equal to NaN."""
    if set(left) != set(right):
        return False
    for key, a in left.items():
        b = right[key]
        if a != b and not (_is_nan(a) and _is_nan(b)):
            return False
    return True


def _is_nan(value) -> bool:
    return isinstance(value, float) and math.isnan(value)


# ---------------------------------------------------------------------- spans


def coverage(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Mapping]) -> Dict[str, float]:
    """Span id → duration minus the part of its interval that its direct
    children cover (children running in parallel are counted once).

    Spans are dicts with ``span_id``, ``parent_id``, ``start`` and
    ``duration`` — the shape of ``repro.obs.Span.as_dict``.
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            start = span["start"]
            children.setdefault(parent, []).append((start, start + span["duration"]))
    out = {}
    for span in spans:
        start, duration = span["start"], span["duration"]
        covered = coverage(children.get(span["span_id"], ()), start, start + duration)
        out[span["span_id"]] = max(0.0, duration - covered)
    return out


def unattributed_share(spans: Sequence[Mapping], roots: Iterable[str]) -> float:
    """Share of the root (op) spans' time that no child span covers: the
    end-to-end time no layer row accounts for."""
    root_ids = set(roots)
    own = self_times(spans)
    total = sum(s["duration"] for s in spans if s["span_id"] in root_ids)
    if total <= 0:
        raise ValueError("no root span time to attribute")
    return sum(own[i] for i in root_ids) / total
