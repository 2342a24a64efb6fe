"""Tests for the frozen reference AS map."""

import math

import pytest

from repro.core import summarize
from repro.datasets import (
    PUBLISHED_AS_MAP_TARGETS,
    REFERENCE_EXPECTED,
    reference_as_map,
    reference_generator,
)
from repro.graph import is_connected


@pytest.fixture(scope="module")
def ref():
    return reference_as_map(1500)


@pytest.fixture(scope="module")
def ref_summary(ref):
    return summarize(ref, seed=0)


class TestReferenceMap:
    def test_cached_identity(self):
        assert reference_as_map(1500) is reference_as_map(1500)

    def test_connected(self, ref):
        assert is_connected(ref)

    def test_named_by_size(self, ref):
        assert ref.name == "reference-as-map-1500"

    def test_deterministic_across_generator_calls(self):
        a = reference_generator().generate(400, seed=20010515)
        b = reference_generator().generate(400, seed=20010515)
        assert {frozenset(e) for e in a.edges()} == {frozenset(e) for e in b.edges()}

    @pytest.mark.parametrize(
        "n, expected",
        [(2000, 1509884144456225266), (3000, 3026069821651568393)],
    )
    def test_edge_for_edge_stable(self, n, expected):
        # The T1 target and battery-cold's n=2000 target: a pinned graph,
        # not only a graph inside the tolerance bands.
        assert reference_as_map(n).fingerprint() == expected

    def test_heavy_tail(self, ref_summary):
        assert not math.isnan(ref_summary.degree_exponent)
        assert 1.8 < ref_summary.degree_exponent < 2.6

    def test_small_world(self, ref_summary):
        assert ref_summary.average_path_length < 5.0

    def test_disassortative(self, ref_summary):
        assert ref_summary.assortativity < -0.05

    def test_clustered(self, ref_summary):
        assert ref_summary.average_clustering > 0.05

    def test_frozen_expectations_at_n3000(self):
        # The contract the rest of the suite relies on: the n=3000
        # reference stays inside the frozen tolerance windows.
        summary = summarize(reference_as_map(3000), seed=0)
        values = summary.as_dict()
        for metric, (expected, tolerance) in REFERENCE_EXPECTED.items():
            assert abs(values[metric] - expected) <= tolerance, metric

    def test_published_targets_sane(self):
        # Published literature anchors should be roughly consistent with
        # the synthetic reference (they anchor EXPERIMENTS.md readings).
        summary = summarize(reference_as_map(3000), seed=0)
        assert summary.degree_exponent == pytest.approx(
            PUBLISHED_AS_MAP_TARGETS["degree_exponent"], abs=0.4
        )
        assert summary.average_path_length == pytest.approx(
            PUBLISHED_AS_MAP_TARGETS["average_path_length"], abs=1.0
        )
