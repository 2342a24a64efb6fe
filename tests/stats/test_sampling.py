"""Tests for repro.stats.sampling — including hypothesis property tests."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.sampling import (
    AliasSampler,
    FenwickSampler,
    distinct_in_order,
    weighted_choice,
)


class TestFenwickBasics:
    def test_empty_sampler_has_zero_total(self):
        assert FenwickSampler().total == 0.0

    def test_append_returns_indices_in_order(self):
        s = FenwickSampler()
        assert [s.append(1.0), s.append(2.0), s.append(3.0)] == [0, 1, 2]

    def test_total_is_sum_of_weights(self):
        s = FenwickSampler([1.0, 2.5, 3.5])
        assert s.total == pytest.approx(7.0)

    def test_weight_readback(self):
        s = FenwickSampler([4.0, 5.0])
        assert s.weight(0) == 4.0
        assert s.weight(1) == 5.0

    def test_update_changes_total(self):
        s = FenwickSampler([1.0, 1.0])
        s.update(0, 10.0)
        assert s.total == pytest.approx(11.0)
        assert s.weight(0) == 10.0

    def test_add_delta(self):
        s = FenwickSampler([2.0])
        s.add(0, 3.0)
        assert s.weight(0) == pytest.approx(5.0)

    def test_negative_weight_rejected(self):
        s = FenwickSampler([1.0])
        with pytest.raises(ValueError):
            s.update(0, -1.0)
        with pytest.raises(ValueError):
            s.append(-2.0)

    def test_add_below_zero_rejected(self):
        s = FenwickSampler([1.0])
        with pytest.raises(ValueError):
            s.add(0, -2.0)

    def test_out_of_range_index_rejected(self):
        s = FenwickSampler([1.0])
        with pytest.raises(IndexError):
            s.add(5, 1.0)

    def test_sample_from_all_zero_rejected(self):
        s = FenwickSampler([0.0, 0.0])
        with pytest.raises(ValueError):
            s.sample()


class TestFenwickSampling:
    def test_single_positive_item_always_selected(self):
        s = FenwickSampler([0.0, 7.0, 0.0], seed=1)
        assert all(s.sample() == 1 for _ in range(50))

    def test_zero_weight_items_never_selected(self):
        s = FenwickSampler([1.0, 0.0, 1.0], seed=2)
        draws = {s.sample() for _ in range(500)}
        assert 1 not in draws

    def test_frequencies_match_weights(self):
        weights = [1.0, 2.0, 3.0, 4.0]
        s = FenwickSampler(weights, seed=3)
        counts = [0] * 4
        n = 40_000
        for _ in range(n):
            counts[s.sample()] += 1
        for i, w in enumerate(weights):
            assert counts[i] / n == pytest.approx(w / 10.0, abs=0.02)

    def test_frequencies_after_dynamic_update(self):
        s = FenwickSampler([1.0, 1.0], seed=4)
        s.update(0, 9.0)
        n = 20_000
        hits = sum(1 for _ in range(n) if s.sample() == 0)
        assert hits / n == pytest.approx(0.9, abs=0.02)

    def test_sample_distinct_returns_requested_count(self):
        s = FenwickSampler([1.0] * 10, seed=5)
        picks = s.sample_distinct(4)
        assert len(picks) == 4
        assert len(set(picks)) == 4

    def test_sample_distinct_too_many_rejected(self):
        s = FenwickSampler([1.0, 0.0], seed=6)
        with pytest.raises(ValueError):
            s.sample_distinct(2)

    def test_seeded_reproducibility(self):
        a = FenwickSampler([1.0, 2.0, 3.0], seed=7)
        b = FenwickSampler([1.0, 2.0, 3.0], seed=7)
        assert [a.sample() for _ in range(20)] == [b.sample() for _ in range(20)]

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_total_always_matches_weight_sum(self, weights):
        s = FenwickSampler(weights)
        assert s.total == pytest.approx(sum(weights), rel=1e-9, abs=1e-9)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_sample_always_returns_positive_weight_index(self, weights, seed):
        s = FenwickSampler(weights, seed=seed)
        idx = s.sample()
        assert 0 <= idx < len(weights)
        assert s.weight(idx) > 0

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_interleaved_updates_keep_prefix_sums_consistent(self, data):
        n = data.draw(st.integers(min_value=1, max_value=20))
        s = FenwickSampler([1.0] * n)
        mirror = [1.0] * n
        for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
            idx = data.draw(st.integers(min_value=0, max_value=n - 1))
            w = data.draw(st.floats(min_value=0.0, max_value=10.0))
            s.update(idx, w)
            mirror[idx] = w
        assert s.total == pytest.approx(sum(mirror), abs=1e-9)
        for i in range(n):
            assert s.weight(i) == pytest.approx(mirror[i])


class TestAliasSampler:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AliasSampler([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AliasSampler([1.0, -1.0])

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            AliasSampler([0.0, 0.0])

    def test_single_item(self):
        s = AliasSampler([5.0], seed=1)
        assert all(s.sample() == 0 for _ in range(20))

    def test_frequencies_match_weights(self):
        weights = [5.0, 1.0, 4.0]
        s = AliasSampler(weights, seed=2)
        counts = [0] * 3
        n = 40_000
        for _ in range(n):
            counts[s.sample()] += 1
        for i, w in enumerate(weights):
            assert counts[i] / n == pytest.approx(w / 10.0, abs=0.02)

    def test_zero_weight_never_drawn(self):
        s = AliasSampler([1.0, 0.0, 1.0], seed=3)
        assert 1 not in {s.sample() for _ in range(2000)}

    def test_sample_many_length(self):
        s = AliasSampler([1.0, 1.0], seed=4)
        assert len(s.sample_many(17)) == 17

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_samples_always_in_range(self, weights):
        s = AliasSampler(weights, seed=0)
        for _ in range(10):
            assert 0 <= s.sample() < len(weights)


class TestWeightedChoice:
    def test_matches_distribution(self):
        rng = random.Random(1)
        n = 20_000
        hits = sum(1 for _ in range(n) if weighted_choice([1.0, 3.0], rng) == 1)
        assert hits / n == pytest.approx(0.75, abs=0.02)

    def test_rejects_zero_total(self):
        with pytest.raises(ValueError):
            weighted_choice([0.0, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            weighted_choice([1.0, -0.5], random.Random(0))

    def test_single_item(self):
        assert weighted_choice([2.0], random.Random(0)) == 0


class TestFenwickBulkBuild:
    """The O(n) constructor must be indistinguishable from append-building."""

    @given(
        st.lists(
            st.integers(min_value=0, max_value=40).map(lambda k: k * 0.25),
            min_size=1,
            max_size=60,
        ).filter(lambda ws: sum(ws) > 0)
    )
    @settings(max_examples=60, deadline=None)
    def test_bulk_matches_appends(self, weights):
        # Multiples of 0.25 are exactly representable, so the one-pass fold
        # and the incremental appends produce bit-equal trees.
        bulk = FenwickSampler(weights, seed=9)
        grown = FenwickSampler(seed=9)
        for w in weights:
            grown.append(w)
        assert bulk.total == grown.total
        assert [bulk.weight(i) for i in range(len(bulk))] == [
            grown.weight(i) for i in range(len(grown))
        ]
        assert [bulk.sample() for _ in range(30)] == [
            grown.sample() for _ in range(30)
        ]

    def test_bulk_build_tracks_positive_count(self):
        sampler = FenwickSampler([0.0, 2.0, 0.0, 1.0])
        assert sampler.sample_distinct(2) == [1, 3]
        with pytest.raises(ValueError):
            sampler.sample_distinct(3)

    def test_bulk_build_rejects_negative(self):
        with pytest.raises(ValueError):
            FenwickSampler([1.0, -0.5])


class TestDistinctInOrder:
    def test_preserves_first_appearance_order(self):
        assert distinct_in_order([3, 1, 3, 2, 1, 5], 3) == [3, 1, 2]

    def test_respects_exclude(self):
        assert distinct_in_order([3, 1, 2], 2, exclude=(3,)) == [1, 2]

    def test_short_block_returns_partial(self):
        assert distinct_in_order([4, 4, 4], 2) == [4]
