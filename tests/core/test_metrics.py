"""Tests for the metric battery."""

import math

import pytest

from repro.core import TopologySummary, summarize
from repro.graph import Graph


class TestSummarize:
    def test_triangle_values(self, triangle):
        s = summarize(triangle)
        assert s.num_nodes == 3
        assert s.num_edges == 3
        assert s.average_degree == pytest.approx(2.0)
        assert s.max_degree == 2
        assert s.average_clustering == 1.0
        assert s.transitivity == 1.0
        assert s.triangles == 1
        assert s.average_path_length == 1.0
        assert s.degeneracy == 2
        assert s.giant_fraction == 1.0

    def test_giant_component_only(self, two_triangles):
        s = summarize(two_triangles)
        assert s.num_nodes == 3
        assert s.giant_fraction == 0.5

    def test_no_tail_gives_nan(self, k4):
        s = summarize(k4, min_tail=2)
        assert math.isnan(s.degree_exponent)

    def test_heavy_tail_fitted(self):
        from repro.generators import BarabasiAlbertGenerator

        g = BarabasiAlbertGenerator(m=2).generate(2000, seed=1)
        s = summarize(g)
        assert s.degree_exponent == pytest.approx(3.0, abs=0.6)
        assert s.degree_exponent_sigma > 0

    def test_sampled_paths_reproducible(self):
        from repro.generators import GlpGenerator

        g = GlpGenerator().generate(2000, seed=2)
        a = summarize(g, path_sample_threshold=100, path_samples=50, seed=5)
        b = summarize(g, path_sample_threshold=100, path_samples=50, seed=5)
        assert a.average_path_length == b.average_path_length

    def test_name_defaults_to_graph_name(self):
        g = Graph(name="custom")
        g.add_edge(0, 1)
        assert summarize(g).name == "custom"

    def test_name_override(self, triangle):
        assert summarize(triangle, name="override").name == "override"

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            summarize(Graph())

    def test_as_dict_excludes_name(self, triangle):
        d = summarize(triangle).as_dict()
        assert "name" not in d
        assert d["num_nodes"] == 3

    def test_str_contains_key_stats(self, triangle):
        text = str(summarize(triangle))
        assert "N=3" in text
        assert "gamma=n/a" in text or "gamma=" in text

    def test_max_degree_fraction(self, star):
        s = summarize(star)
        assert s.max_degree_fraction == pytest.approx(5 / 6)


class TestMeasureUnit:
    """A measure unit reads the attached view under the giant mask: it
    materializes no Graph and builds no second view."""

    def test_measure_unit_builds_no_graph(self, tmp_path, monkeypatch):
        from repro.core import battery, transport
        from repro.core.metrics import METRIC_GROUPS, compute_metric_groups
        from repro.core.registry import make_generator
        from repro.graph.csr import CSRView

        generator = make_generator("glp")
        graph = generator.generate(300, seed=3)
        groups = tuple(METRIC_GROUPS)
        params = dict(battery.SUMMARIZE_DEFAULTS)
        expected = compute_metric_groups(graph, groups, seed=3, **params)
        plan = battery.plan_cells(generator, 300, 3, groups, params)
        plan.handle = transport.publish_graph(graph, tmp_path / "glp", name="glp")
        task = battery.unit_task(plan, groups=groups, sum_params=params)
        assert task["unit"]["kind"] == "measure"

        def refuse(*args, **kwargs):
            raise AssertionError("a measure unit built a Graph or a second view")

        transport.clear_attach_cache()
        monkeypatch.setattr(transport, "materialize_view", refuse)
        monkeypatch.setattr(CSRView, "from_graph", classmethod(refuse))
        monkeypatch.setattr(Graph, "__init__", refuse)
        try:
            outcome = battery._battery_task(task)
        finally:
            transport.clear_attach_cache()
        assert outcome.gen_seconds == 0.0
        assert outcome.values == expected
