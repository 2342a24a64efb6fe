"""GraphStore facade: snapshot coherence and view-only measurement."""

import shutil

import pytest

from repro.core.metrics import compute_metric_groups
from repro.core.registry import make_generator
from repro.graph import Graph
from repro.store import GraphStore, StoreError


def sample_graph():
    return make_generator("plrg", gamma=2.2).generate(250, seed=8)


class TestFacade:
    def test_open_missing_raises(self, tmp_path):
        with pytest.raises(StoreError):
            GraphStore.open(tmp_path / "nope.db")

    def test_save_load_round_trip(self, tmp_path):
        g = sample_graph()
        store = GraphStore(tmp_path / "w.db")
        info = store.save(g)
        assert info["complete"] and info["snapshot"] == "fresh"
        assert store.load().fingerprint() == g.fingerprint()

    def test_save_same_graph_is_idempotent(self, tmp_path):
        g = sample_graph()
        store = GraphStore(tmp_path / "w.db")
        store.save(g)
        info = store.save(g)  # same fingerprint: allowed
        assert info["num_edges"] == g.num_edges

    def test_graph_convenience_methods(self, tmp_path):
        g = sample_graph()
        g.to_store(tmp_path / "w.db")
        assert Graph.from_store(tmp_path / "w.db").fingerprint() == g.fingerprint()


class TestSnapshotCoherence:
    def test_csr_uses_fresh_snapshot(self, tmp_path):
        g = sample_graph()
        store = GraphStore(tmp_path / "w.db")
        store.save(g)
        view = store.csr()
        assert view.num_nodes == g.num_nodes
        assert list(view.indptr) == list(g.csr().indptr)

    def test_csr_rebuilds_missing_snapshot(self, tmp_path):
        g = sample_graph()
        store = GraphStore(tmp_path / "w.db")
        store.save(g, snapshot=False)
        assert store.info()["snapshot"] == "absent"
        view = store.csr()
        assert view.num_edges == g.num_edges
        assert store.info()["snapshot"] == "fresh"

    def test_csr_rebuilds_torn_snapshot(self, tmp_path):
        g = sample_graph()
        store = GraphStore(tmp_path / "w.db")
        store.save(g)
        (store.snapshot_path / "meta.json").write_text("{ torn")
        assert store.info()["snapshot"] == "corrupt"
        view = store.csr()
        assert list(view.indices) == list(g.csr().indices)
        assert store.info()["snapshot"] == "fresh"

    def test_csr_rebuilds_stale_snapshot(self, tmp_path):
        # A snapshot stamped with a different fingerprint (e.g. copied from
        # another store) must be ignored and rewritten.
        a, b = sample_graph(), make_generator("plrg", gamma=2.6).generate(250, seed=9)
        store_a = GraphStore(tmp_path / "a.db")
        store_b = GraphStore(tmp_path / "b.db")
        store_a.save(a)
        store_b.save(b)
        shutil.rmtree(store_b.snapshot_path)
        shutil.copytree(store_a.snapshot_path, store_b.snapshot_path)
        assert store_b.info()["snapshot"] == "stale"
        view = store_b.csr()
        assert view.num_edges == b.num_edges


class TestMeasure:
    def test_size_group_matches_graph_metrics(self, tmp_path):
        g = sample_graph()
        store = GraphStore(tmp_path / "w.db")
        store.save(g)
        from_view = store.measure()
        from_graph = compute_metric_groups(g, groups=["size"])["size"]
        for key, value in from_graph.items():
            assert from_view[key] == pytest.approx(value), key

    def test_isolated_nodes_counted_in_giant_fraction(self, tmp_path):
        g = Graph(name="iso")
        g.add_nodes(range(10))
        g.add_edges([(0, 1), (1, 2), (2, 0)])  # 7 isolated nodes
        store = GraphStore(tmp_path / "w.db")
        store.save(g)
        measured = store.measure()
        assert measured["giant_fraction"] == pytest.approx(0.3)
        assert measured["num_nodes"] == 3

    def test_empty_view_raises(self):
        from repro.graph.csr import CSRView
        import numpy as np

        empty = CSRView(
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            [],
        )
        with pytest.raises(ValueError):
            compute_metric_groups(empty, ["size"])
