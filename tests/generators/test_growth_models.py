"""Tests for the degree-driven growth generators (BA, AB, GLP, PFP)."""

import pytest

from repro.generators import (
    AlbertBarabasiGenerator,
    BarabasiAlbertGenerator,
    GenerationError,
    GlpGenerator,
    PfpGenerator,
)
from repro.graph import (
    average_clustering,
    degeneracy,
    giant_component,
    is_connected,
)
from repro.stats import fit_discrete_powerlaw, fit_powerlaw_auto_xmin

from .oracles import preferential_targets


class TestPreferentialTargets:
    def test_excludes_self(self):
        import random

        rng = random.Random(1)
        targets = preferential_targets([1, 1, 2, 2], 2, rng, exclude=3)
        assert set(targets) == {1, 2}

    def test_distinct(self):
        import random

        rng = random.Random(2)
        for _ in range(20):
            targets = preferential_targets([1, 2, 3, 1, 2, 3], 3, rng, exclude=9)
            assert len(set(targets)) == 3

    def test_too_many_rejected(self):
        import random

        with pytest.raises(GenerationError):
            preferential_targets([1, 1], 2, random.Random(3), exclude=0)

    def test_empty_rejected(self):
        import random

        with pytest.raises(GenerationError):
            preferential_targets([], 1, random.Random(4), exclude=0)

    def test_degree_bias(self):
        import random

        rng = random.Random(5)
        repeated = [0] * 9 + [1]  # node 0 has 9x the weight
        hits = sum(
            preferential_targets(repeated, 1, rng, exclude=7)[0] == 0
            for _ in range(500)
        )
        assert hits > 400


class TestBarabasiAlbert:
    def test_exact_size(self):
        assert BarabasiAlbertGenerator(m=2).generate(500, seed=1).num_nodes == 500

    def test_edge_count(self):
        n, m = 400, 3
        g = BarabasiAlbertGenerator(m=m).generate(n, seed=2)
        seed_size = max(m, 3)
        assert g.num_edges == seed_size + (n - seed_size) * m

    def test_connected(self):
        assert is_connected(BarabasiAlbertGenerator(m=1).generate(300, seed=3))

    def test_gamma_near_three(self):
        g = BarabasiAlbertGenerator(m=2).generate(4000, seed=4)
        fit = fit_powerlaw_auto_xmin(list(g.degrees().values()), min_tail=100)
        assert fit.gamma == pytest.approx(3.0, abs=0.45)

    def test_degeneracy_equals_m(self):
        g = BarabasiAlbertGenerator(m=2).generate(500, seed=5)
        assert degeneracy(g) == 2

    def test_min_size_enforced(self):
        with pytest.raises(GenerationError):
            BarabasiAlbertGenerator(m=2).generate(3, seed=6)

    def test_invalid_m_rejected(self):
        with pytest.raises(ValueError):
            BarabasiAlbertGenerator(m=0)

    def test_min_degree_is_m(self):
        g = BarabasiAlbertGenerator(m=3).generate(300, seed=7)
        degrees = list(g.degrees().values())
        assert min(degrees) >= 2  # seed ring nodes have degree >= 2
        # Non-seed arrivals have degree >= m.
        assert sorted(degrees)[5] >= 3


class TestAlbertBarabasi:
    def test_exact_size(self):
        g = AlbertBarabasiGenerator(m=2, p=0.3, q=0.1).generate(400, seed=1)
        assert g.num_nodes == 400

    def test_denser_than_plain_ba(self):
        ba = BarabasiAlbertGenerator(m=2).generate(500, seed=2)
        ab = AlbertBarabasiGenerator(m=2, p=0.4, q=0.0).generate(500, seed=2)
        assert ab.average_degree > ba.average_degree

    def test_flatter_exponent_than_ba(self):
        ab = AlbertBarabasiGenerator(m=2, p=0.4, q=0.05).generate(4000, seed=3)
        fit = fit_powerlaw_auto_xmin(list(ab.degrees().values()), min_tail=100)
        assert fit.gamma < 2.9

    def test_invalid_probs_rejected(self):
        with pytest.raises(ValueError):
            AlbertBarabasiGenerator(p=0.7, q=0.4)
        with pytest.raises(ValueError):
            AlbertBarabasiGenerator(p=-0.1)

    def test_rewire_only_mode_runs(self):
        g = AlbertBarabasiGenerator(m=1, p=0.0, q=0.3).generate(200, seed=4)
        assert g.num_nodes == 200


class TestGlp:
    def test_exact_size(self):
        assert GlpGenerator().generate(400, seed=1).num_nodes == 400

    def test_gamma_in_as_range(self):
        g = GlpGenerator().generate(5000, seed=2)
        fit = fit_powerlaw_auto_xmin(list(g.degrees().values()), min_tail=150)
        assert 1.9 < fit.gamma < 2.6

    def test_higher_clustering_than_ba(self):
        ba = BarabasiAlbertGenerator(m=2).generate(1000, seed=3)
        glp = GlpGenerator().generate(1000, seed=3)
        assert average_clustering(glp) > average_clustering(ba)

    def test_average_degree_near_published(self):
        # <k> ≈ 2m/(1-p) ≈ 4.26 for the published parameters.
        g = GlpGenerator().generate(2000, seed=4)
        assert g.average_degree == pytest.approx(4.26, rel=0.2)

    def test_beta_one_rejected(self):
        with pytest.raises(ValueError):
            GlpGenerator(beta=1.0)

    def test_invalid_m_rejected(self):
        with pytest.raises(ValueError):
            GlpGenerator(m=0.5)

    def test_giant_component_everything(self):
        g = GlpGenerator().generate(500, seed=5)
        assert giant_component(g).num_nodes >= 0.99 * g.num_nodes


class TestPfp:
    def test_exact_size(self):
        assert PfpGenerator().generate(400, seed=1).num_nodes == 400

    def test_connected(self):
        assert is_connected(PfpGenerator().generate(400, seed=2))

    def test_heavy_tail(self):
        g = PfpGenerator().generate(3000, seed=3)
        fit = fit_powerlaw_auto_xmin(list(g.degrees().values()), min_tail=100)
        assert 1.9 < fit.gamma < 2.6

    def test_rich_hub_dominance(self):
        g = PfpGenerator().generate(2000, seed=4)
        assert g.max_degree > 0.05 * g.num_nodes

    def test_disassortative(self):
        from repro.graph import degree_assortativity

        g = PfpGenerator().generate(2000, seed=5)
        assert degree_assortativity(g) < -0.1

    def test_invalid_probs_rejected(self):
        with pytest.raises(ValueError):
            PfpGenerator(p=0.8, q=0.3)
        with pytest.raises(ValueError):
            PfpGenerator(delta=-0.1)

    def test_delta_zero_is_linear_preference(self):
        gen = PfpGenerator(delta=0.0)
        assert gen._preference(10) == pytest.approx(10.0)

    def test_preference_superlinear(self):
        gen = PfpGenerator(delta=0.048)
        assert gen._preference(100) > 100.0
        assert gen._preference(0) == 0.0
