"""Property tests: every CSR metric kernel agrees with its oracle.

Every scalar in :data:`repro.core.metrics.METRIC_GROUPS` must come out
bit-for-bit identical from the CSR kernels and from the dict-walking
oracles in :mod:`tests.graph.oracles` on arbitrary graphs, including
ones with isolated nodes, reinforced (multi-weight) edges, and
non-integer or mixed int/str node ids.  The battery measures a
:class:`~repro.graph.csr.CSRView` under a giant mask; it must give the
same bits from a view (in memory or a reopened snapshot) as from the
graph.  Betweenness (not a battery scalar) accumulates floats in a
different order in the two, so it gets a 1e-9 relative tolerance
instead of exact equality.  The bit-parallel BFS behind every path
quantity is held level by level to the dense distance-matrix oracle,
on in-memory and memory-mapped views alike.
"""

import contextlib
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.metrics import METRIC_GROUPS, compute_metric_groups
from repro.core.transport import materialize_view
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
from repro.graph.csr import popcount
from repro.graph.richclub import rich_club_coefficient
from repro.graph.shortest_paths import (
    diameter,
    eccentricities,
    path_length_distribution,
    path_length_stats,
)
from repro.graph.traversal import connected_components, is_connected
from repro.store.snapshot import load_csr_snapshot, save_csr_snapshot

from .oracles import distance_batch, reference

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


def two_equal_giants():
    """Two largest components of three nodes each, interleaved in node
    order: a path holding the first node, then a triangle.  The battery
    measures the one holding the earliest node, the path."""
    g = Graph()
    g.add_nodes(["p0", "t0", "p1", "t1", "p2", "t2", "lone"])
    g.add_edges([("p0", "p1"), ("p1", "p2"), ("t0", "t1"), ("t1", "t2"), ("t2", "t0")])
    return g


#: Sources per BFS call: one word, a word's edges, and both sides of the
#: 512-source chunk the path functions run.
SOURCE_COUNTS = (1, 63, 64, 65, 512, 513)


@st.composite
def sparse_graphs(draw):
    """Random sparse graphs for the BFS kernels: many components, isolated
    nodes (the last position too, when drawn), sizes on both sides of a
    512-source chunk, and int ids (a range-mode snapshot) or str ids."""
    n = draw(st.sampled_from((1, 2, 3, 24, 70, 600)))
    nodes = draw(st.sampled_from((list(range(n)), [f"as{i}" for i in range(n)])))
    edges_per_node = draw(st.sampled_from((0, 0.5, 1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = rng.integers(0, n, size=(int(edges_per_node * n), 2))
    if draw(st.booleans()):
        edges = edges[(edges != n - 1).all(axis=1)]
    g = Graph()
    g.add_nodes(nodes)
    g.add_edges((nodes[u], nodes[v]) for u, v in edges.tolist() if u != v)
    return g


def isolated_tail():
    """A path and a triangle, then an isolated last position."""
    g = Graph()
    g.add_nodes(range(7))
    g.add_edges([(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
    return g


def no_edges():
    """Five isolated nodes: the giant is one node."""
    g = Graph()
    g.add_nodes([f"as{i}" for i in range(5)])
    return g


@contextlib.contextmanager
def both_views(g):
    """The graph's own view and the same view reopened from a snapshot,
    whose arrays are read-only memory maps."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "g"
        save_csr_snapshot(path, g.csr())
        yield g.csr(), load_csr_snapshot(path)


def unpack(level, count):
    """A level as an (n, count) boolean matrix: column j is source j's."""
    bits = np.arange(count)
    shifted = level[:, bits // 64] >> (bits % 64).astype(np.uint64)
    return (shifted & np.uint64(1)) == 1


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
    @example(two_equal_giants())
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


    def test_tail_fit_reads_the_giant_only(self):
        # A tree that fits at min_tail=2, beside a K4 whose degrees would
        # move the fit (the random graphs above are too small to fit).
        g = Graph()
        g.add_edges([(0, i) for i in range(1, 9)] + [(1, i) for i in range(9, 12)])
        g.add_edges([(a, b) for a in range(20, 24) for b in range(a + 1, 24)])
        values = compute_metric_groups(g, ("tail",), min_tail=2)
        oracle = reference(compute_metric_groups, g, ("tail",), min_tail=2)
        assert_same(oracle, values, label="tail")
        assert not math.isnan(values["tail"]["degree_exponent"])


class TestViewInput:
    @given(graphs())
    @example(two_equal_giants())
    @settings(max_examples=40, deadline=None)
    def test_view_matches_graph_bit_for_bit(self, g):
        groups = tuple(METRIC_GROUPS)
        from_graph = compute_metric_groups(g, groups)
        assert_same(compute_metric_groups(g.csr(), groups), from_graph, label="view")
        # A measure unit reads a reopened snapshot, whose node ids went
        # through JSON (tuples come back as lists).
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "g"
            save_csr_snapshot(path, g.csr())
            reopened = compute_metric_groups(load_csr_snapshot(path), groups)
        assert_same(reopened, from_graph, label="snapshot")


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


class TestBitParallelBFS:
    @given(
        sparse_graphs(),
        st.sampled_from(SOURCE_COUNTS),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @example(isolated_tail(), 65, False, 0)
    @example(isolated_tail(), 513, True, 1)
    @example(no_edges(), 64, False, 2)
    @settings(max_examples=40, deadline=None)
    def test_levels_match_distance_oracle(self, g, count, masked, seed):
        # Sources are drawn with replacement, so one position can hold
        # several sources' bits, some in the same word.
        rng = np.random.default_rng(seed)
        with both_views(g) as (memory, mapped):
            n = memory.num_nodes
            sources = rng.integers(0, n, size=count)
            active = None
            if masked:
                active = rng.random(n) < 0.7
                active[sources] = True
            expected = distance_batch(memory, sources, active)
            reached = expected > 0
            for view in (memory, mapped):
                levels = list(view.bfs_levels(sources, active))
                assert len(levels) == int(expected.max())
                for depth, level in enumerate(levels, start=1):
                    assert level.shape == (n, -(-count // 64))
                    bits = unpack(level, count)
                    assert np.array_equal(bits, expected == depth), depth
                    # No bit beyond the last source is ever set.
                    assert popcount(level) == int(bits.sum())
                pairs = sum(popcount(level) for level in levels)
                distance_sum = sum(
                    depth * popcount(level)
                    for depth, level in enumerate(levels, start=1)
                )
                assert pairs == int(reached.sum())
                assert distance_sum == int(expected.sum(where=reached, dtype=np.int64))

    @given(sparse_graphs())
    @example(isolated_tail())
    @example(no_edges())
    @settings(max_examples=25, deadline=None)
    def test_path_functions_match_oracles(self, g):
        counts = reference(path_length_distribution, g).counts
        farthest = reference(eccentricities, g)
        connected = reference(is_connected, g)
        with both_views(g) as (memory, mapped):
            for view, graph in ((memory, g), (mapped, materialize_view(mapped))):
                assert graph.csr() is view
                positions = range(view.num_nodes)
                assert path_length_stats(view, positions).counts == counts
                assert eccentricities(graph) == farthest
                if connected:
                    assert diameter(graph) == reference(diameter, g)
                else:
                    with pytest.raises(ValueError):
                        diameter(graph)

    def test_inactive_source_raises(self):
        view = isolated_tail().csr()
        active = np.ones(view.num_nodes, dtype=bool)
        active[4] = False
        sources = np.array([0, 4])
        with pytest.raises(ValueError):
            distance_batch(view, sources, active)
        with pytest.raises(ValueError):
            view.bfs_levels(sources, active)


def sorted_key(component):
    return tuple(sorted(repr(node) for node in component))
