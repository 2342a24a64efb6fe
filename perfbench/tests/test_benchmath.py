"""Tests for the benchmark's own arithmetic (``perfbench/benchmath.py``).

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import benchmath as bm  # noqa: E402


def test_nearest_rank_percentile_returns_an_observed_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert bm.percentile(values, 50) == 3.0
    assert bm.percentile(values, 20) == 1.0
    assert bm.percentile(values, 21) == 2.0
    assert bm.percentile(values, 100) == 5.0
    assert bm.median([7.0]) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        bm.percentile([], 50)
    with pytest.raises(ValueError):
        bm.percentile([1.0], 0)


def test_tail_rule_needs_ten_samples_beyond():
    assert bm.samples_beyond(1000, 99) == 10
    assert bm.samples_beyond(999, 99) == 9
    assert bm.tail_percentile(1000, 99) == 99
    # 999 samples leave 9 beyond p99, so the tail steps down to p95.
    assert bm.tail_percentile(999, 99) == 95
    assert bm.tail_percentile(300, 99) == 95
    assert bm.tail_percentile(120, 90) == 90
    assert bm.tail_percentile(99, 90) == 75
    # A preferred percentile is never raised.
    assert bm.tail_percentile(10_000, 95) == 95
    with pytest.raises(ValueError):
        bm.tail_percentile(15, 99)


def test_due_time_latency_counts_the_wait_behind_a_stall():
    # Due at 1.0 but the connection was busy until 1.3: sent then, done 1.35.
    op = bm.Timing(due=1.0, sent=1.3, done=1.35, free=1.3)
    assert op.latency == pytest.approx(0.35)
    assert op.round_trip == pytest.approx(0.05)
    assert op.lateness == pytest.approx(0.3)
    # The server held the connection; the generator sent as soon as it could.
    assert op.generator_lateness == 0.0


def test_generator_lateness_is_the_senders_own_delay():
    op = bm.Timing(due=2.0, sent=2.004, done=2.007, free=1.5)
    assert op.lateness == pytest.approx(0.004)
    assert op.generator_lateness == pytest.approx(0.004)
    early = bm.Timing(due=3.0, sent=3.0, done=3.002, free=2.0)
    assert early.lateness == 0.0 and early.generator_lateness == 0.0


def test_ok_share_counts_rejections_errors_and_wrong_values():
    tally = bm.Tally()
    for status, ok in [(200, True)] * 6 + [(503, True), (None, False), (500, True), (200, False)]:
        tally.add(bm.classify(status, ok))
    assert tally.attempted == 10
    assert tally.failed == 3
    assert tally.wrong == 1
    assert tally.ok_share == pytest.approx(0.6)


def test_same_values_is_exact_and_nan_aware():
    a = {"x": 1.0, "y": float("nan"), "n": 3}
    assert bm.same_values(a, {"x": 1.0, "y": float("nan"), "n": 3})
    assert not bm.same_values(a, {"x": 1.0 + 1e-15, "y": float("nan"), "n": 3})
    assert not bm.same_values(a, {"x": 1.0, "n": 3})


def _span(span_id, start, end, parent=None):
    return {"span_id": span_id, "parent_id": parent, "start": start, "duration": end - start}


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, "root"),
        _span("b", 3.0, 6.0, "root"),  # overlaps a: covered once
        _span("c", 8.0, 12.0, "root"),  # runs past the root: clipped
        _span("a1", 1.5, 2.0, "a"),
    ]
    own = bm.self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own["a"] == pytest.approx(2.5)
    assert own["b"] == pytest.approx(3.0)
    assert own["a1"] == pytest.approx(0.5)


def test_coverage_merges_and_clips():
    assert bm.coverage([(0, 1), (0.5, 2), (3, 4)], 0, 10) == pytest.approx(3.0)
    assert bm.coverage([(-1, 1)], 0, 0.5) == pytest.approx(0.5)
    assert bm.coverage([], 0, 1) == 0.0


def test_unattributed_remainder_of_the_op_spans():
    spans = [
        _span("op1", 0.0, 1.0),
        _span("x", 0.0, 0.9, "op1"),
        _span("op2", 2.0, 3.0),
        _span("y", 2.0, 2.7, "op2"),
        _span("y1", 2.1, 2.2, "y"),  # nested time is already inside y
    ]
    share = bm.unattributed_share(spans, ["op1", "op2"])
    assert share == pytest.approx((0.1 + 0.3) / 2.0)
    assert math.isclose(bm.unattributed_share([_span("r", 0, 1)], ["r"]), 1.0)
