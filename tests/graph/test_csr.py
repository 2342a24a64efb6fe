"""Tests for the CSR view: construction, immutability, cache invalidation."""

import numpy as np
import pytest

from repro.graph import Graph
from repro.graph.csr import CSRView, resolve_backend
from repro.graph.clustering import total_triangles


def small_graph():
    g = Graph()
    g.add_edge("a", "b", weight=2)
    g.add_edge("b", "c", weight=1.5)
    g.add_edge("a", "c")
    g.add_node("lonely")
    return g


class TestConstruction:
    def test_row_layout(self):
        view = small_graph().csr()
        assert view.num_nodes == 4
        assert view.num_edges == 3
        assert len(view.indices) == 6  # each undirected edge twice
        assert view.indptr[0] == 0 and view.indptr[-1] == 6

    def test_isolated_nodes_have_empty_rows(self):
        view = small_graph().csr()
        i = view.index["lonely"]
        assert view.neighbor_slice(i).size == 0
        assert view.degrees[i] == 0

    def test_rows_are_sorted(self):
        g = Graph()
        for v in (5, 3, 9, 1):
            g.add_edge(0, v)
        view = g.csr()
        row = view.neighbor_slice(view.index[0])
        assert list(row) == sorted(row)

    def test_node_index_roundtrip(self):
        view = small_graph().csr()
        for node in small_graph().nodes():
            assert view.nodes[view.index[node]] == node

    def test_weights_align_with_indices(self):
        g = small_graph()
        view = g.csr()
        for node in g.nodes():
            i = view.index[node]
            start, stop = int(view.indptr[i]), int(view.indptr[i + 1])
            for j, w in zip(view.indices[start:stop], view.weights[start:stop]):
                assert g.edge_weight(node, view.nodes[j]) == w

    def test_edge_arrays_each_edge_once(self):
        view = small_graph().csr()
        u, v, w = view.edge_arrays()
        assert u.size == view.num_edges
        assert (u < v).all()

    def test_empty_graph(self):
        view = Graph().csr()
        assert view.num_nodes == 0
        assert view.num_edges == 0

    def test_bfs_distances_marks_unreachable(self):
        g = small_graph()
        view = g.csr()
        distances = view.bfs_distances(view.index["a"])
        assert distances[view.index["lonely"]] == -1
        assert distances[view.index["a"]] == 0
        assert distances[view.index["b"]] == 1


class TestImmutability:
    @pytest.mark.parametrize("array", ["indptr", "indices", "weights", "degrees"])
    def test_arrays_are_read_only(self, array):
        view = small_graph().csr()
        with pytest.raises(ValueError):
            getattr(view, array)[0] = 99


class TestCacheInvalidation:
    def test_view_is_cached(self):
        g = small_graph()
        assert g.csr() is g.csr()

    def test_add_edge_invalidates(self):
        g = small_graph()
        before = g.csr()
        g.add_edge("a", "lonely")
        after = g.csr()
        assert after is not before
        assert after.num_edges == before.num_edges + 1

    def test_remove_edge_invalidates(self):
        g = small_graph()
        before = g.csr()
        g.remove_edge("a", "b")
        assert g.csr() is not before

    def test_remove_node_invalidates(self):
        g = small_graph()
        before = g.csr()
        g.remove_node("b")
        assert g.csr() is not before

    def test_set_edge_weight_invalidates(self):
        g = small_graph()
        before = g.csr()
        g.set_edge_weight("a", "b", 7.0)
        view = g.csr()
        assert view is not before
        i = view.index["a"]
        row = slice(int(view.indptr[i]), int(view.indptr[i + 1]))
        assert 7.0 in view.weights[row]

    def test_reinforcing_edge_invalidates(self):
        g = small_graph()
        before = g.csr()
        g.add_edge("a", "b")  # existing edge: weight bump mutates the graph
        assert g.csr() is not before

    def test_stale_view_never_observed_through_metrics(self):
        # Regression: a kernel must see mutations made after a cached build.
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        assert total_triangles(g) == 0
        g.add_edge(0, 2)  # closes the triangle after the view was cached
        assert total_triangles(g) == 1

    def test_old_view_unchanged_after_mutation(self):
        g = small_graph()
        before = g.csr()
        edges_before = before.num_edges
        g.add_edge("a", "lonely")
        assert before.num_edges == edges_before


class TestFingerprint:
    def test_csr_path_matches_dict_path(self):
        g = small_graph()
        dict_value = g.fingerprint()
        g._fingerprint_cache = None
        g.csr()  # prime the view so the CSR walk is taken
        assert g.fingerprint() == dict_value

    def test_memoized_until_mutation(self):
        g = small_graph()
        first = g.fingerprint()
        assert g.fingerprint() == first
        g.add_edge("a", "lonely")
        assert g.fingerprint() != first

    def test_insertion_order_independent_via_csr(self):
        g = Graph()
        g.add_edge(1, 2, weight=2)
        g.add_edge(2, 3)
        h = Graph()
        h.add_edge(2, 3)
        h.add_edge(1, 2, weight=2)
        g.csr()
        h.csr()
        g._fingerprint_cache = None
        h._fingerprint_cache = None
        assert g.fingerprint() == h.fingerprint()


class TestResolveBackend:
    """The perfbench-only shim: every accepted name resolves to csr."""

    def test_every_name_resolves_to_csr(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")  # no longer read
        for name in ("auto", "python", "csr"):
            for size in (0, 1, 299, 300, 10**6):
                assert resolve_backend(name, size) == "csr"
        assert resolve_backend() == "csr"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            resolve_backend("fortran", 10)


class TestFromGraphDirect:
    def test_from_graph_matches_graph_csr(self):
        g = small_graph()
        direct = CSRView.from_graph(g)
        cached = g.csr()
        assert np.array_equal(direct.indptr, cached.indptr)
        assert np.array_equal(direct.indices, cached.indices)
        assert np.array_equal(direct.weights, cached.weights)
        assert direct.nodes == cached.nodes
