"""Property tests: every CSR metric kernel agrees with its oracle.

Every scalar in :data:`repro.core.metrics.METRIC_GROUPS` must come out
bit-for-bit identical from the CSR kernels and from the dict-walking
oracles in :mod:`tests.graph.oracles` on arbitrary graphs, including
ones with isolated nodes, reinforced (multi-weight) edges, and
non-integer or mixed int/str node ids.  Betweenness (not a battery
scalar) accumulates floats in a different order in the two, so it gets
a 1e-9 relative tolerance instead of exact equality.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import METRIC_GROUPS, compute_metric_groups
from repro.graph import Graph
from repro.graph.betweenness import approximate_betweenness, betweenness_centrality
from repro.graph.clustering import (
    average_clustering,
    clustering_by_degree,
    clustering_spectrum,
    local_clustering,
    total_triangles,
    transitivity,
    triangles_per_node,
)
from repro.graph.cores import core_numbers, core_profile, degeneracy
from repro.graph.correlations import (
    average_neighbor_degree,
    degree_assortativity,
    knn_by_degree,
    knn_spectrum,
)
from repro.graph.richclub import rich_club_coefficient
from repro.graph.shortest_paths import (
    diameter,
    eccentricities,
    path_length_distribution,
)
from repro.graph.traversal import connected_components, is_connected

from .oracles import reference

# Node-id pools exercising non-integer ids; each graph draws from one
# pool.  The last mixes ints and strs, as an edge list mixing ASNs and
# names parses, so its ids are not mutually comparable.
NODE_POOLS = (
    list(range(24)),
    [f"as{i}" for i in range(24)],
    [float(i) / 2 for i in range(24)],
    [(i // 5, i % 5) for i in range(25)],
    [i if i % 2 else f"as{i}" for i in range(24)],
)


@st.composite
def graphs(draw):
    """Random small graphs: isolated nodes, repeated (reinforced) edges,
    assorted node-id types, weights that are not all 1."""
    pool = draw(st.sampled_from(NODE_POOLS))
    size = draw(st.integers(min_value=2, max_value=len(pool)))
    nodes = pool[:size]
    g = Graph()
    for node in nodes:
        g.add_node(node)
    edge_count = draw(st.integers(min_value=0, max_value=3 * size))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=size - 1),
        st.integers(min_value=0, max_value=size - 1),
    )
    weights = st.sampled_from([1, 1.0, 2.5, 3, 0.75])
    for _ in range(edge_count):
        i, j = draw(pairs)
        if i == j:
            continue
        g.add_edge(nodes[i], nodes[j], weight=draw(weights))
    return g


def assert_same(a, b, rel=0.0, label=""):
    """Recursive equality, exact by default, NaN-aware for floats."""
    assert type(a) is type(b) or (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
    ), (label, a, b)
    if isinstance(a, dict):
        assert set(a) == set(b), (label, set(a) ^ set(b))
        for key in a:
            assert_same(a[key], b[key], rel=rel, label=f"{label}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), (label, a, b)
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, rel=rel, label=f"{label}[{i}]")
    elif isinstance(a, float) and math.isnan(a):
        assert isinstance(b, float) and math.isnan(b), (label, a, b)
    elif rel and isinstance(a, float):
        assert abs(a - b) <= rel * max(1.0, abs(a), abs(b)), (label, a, b)
    else:
        assert a == b, (label, a, b)


class TestBatteryScalars:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_all_metric_groups_bit_for_bit(self, g):
        groups = tuple(METRIC_GROUPS)
        py = reference(compute_metric_groups, g, groups)
        cs = compute_metric_groups(g, groups)
        assert_same(py, cs, label="groups")

    @given(graphs(), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_sampled_paths_share_sources(self, g, seed):
        py = reference(
            compute_metric_groups, g, ("paths",), path_sample_threshold=3,
            path_samples=4, seed=seed,
        )
        cs = compute_metric_groups(
            g, ("paths",), path_sample_threshold=3, path_samples=4, seed=seed,
        )
        assert_same(py, cs, label="sampled-paths")


class TestKernelEquivalence:
    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_clustering_kernels(self, g):
        assert_same(
            reference(triangles_per_node, g),
            triangles_per_node(g),
            label="triangles_per_node",
        )
        assert reference(total_triangles, g) == total_triangles(g)
        assert_same(
            reference(local_clustering, g),
            local_clustering(g),
            label="local_clustering",
        )
        assert reference(average_clustering, g) == average_clustering(g)
        assert reference(transitivity, g) == transitivity(g)
        assert_same(
            reference(clustering_by_degree, g),
            clustering_by_degree(g),
            label="clustering_by_degree",
        )
        assert_same(
            reference(clustering_spectrum, g),
            clustering_spectrum(g),
            label="clustering_spectrum",
        )

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_core_kernels(self, g):
        assert_same(
            reference(core_numbers, g),
            core_numbers(g),
            label="core_numbers",
        )
        assert reference(degeneracy, g) == degeneracy(g)
        assert reference(core_profile, g) == core_profile(g)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_correlation_kernels(self, g):
        assert_same(
            reference(average_neighbor_degree, g),
            average_neighbor_degree(g),
            label="average_neighbor_degree",
        )
        assert_same(
            reference(knn_by_degree, g),
            knn_by_degree(g),
            label="knn_by_degree",
        )
        assert_same(
            reference(knn_spectrum, g),
            knn_spectrum(g),
            label="knn_spectrum",
        )
        assert reference(degree_assortativity, g) == degree_assortativity(g)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_richclub_kernel(self, g):
        assert_same(
            reference(rich_club_coefficient, g),
            rich_club_coefficient(g),
            label="rich_club",
        )

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_path_kernels(self, g):
        assert_same(
            reference(path_length_distribution, g).counts,
            path_length_distribution(g).counts,
            label="path_counts",
        )
        assert_same(
            reference(eccentricities, g),
            eccentricities(g),
            label="eccentricities",
        )
        if reference(is_connected, g):
            assert reference(diameter, g) == diameter(g)
        else:
            with pytest.raises(ValueError):
                diameter(g)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_traversal_kernels(self, g):
        py = reference(connected_components, g)
        cs = connected_components(g)
        assert [len(c) for c in py] == [len(c) for c in cs]
        assert sorted(map(sorted_key, py)) == sorted(map(sorted_key, cs))
        assert reference(is_connected, g) == is_connected(g)

    @given(graphs())
    @settings(max_examples=25, deadline=None)
    def test_betweenness_within_tolerance(self, g):
        assert_same(
            reference(betweenness_centrality, g),
            betweenness_centrality(g),
            rel=1e-9,
            label="betweenness",
        )

    @given(graphs(), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_pivot_betweenness_shares_pivots(self, g, seed):
        pivots = max(1, g.num_nodes // 2)
        assert_same(
            reference(approximate_betweenness, g, pivots, seed=seed),
            approximate_betweenness(g, pivots, seed=seed),
            rel=1e-9,
            label="approx-betweenness",
        )


def sorted_key(component):
    return tuple(sorted(repr(node) for node in component))
