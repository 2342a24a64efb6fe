"""Tests for removal sweeps (:func:`percolation_sweep`)."""

import math

import pytest

from repro.generators import BarabasiAlbertGenerator, ErdosRenyiGnm
from repro.graph import Graph, giant_component
from repro.resilience import (
    AttackStrategy,
    critical_fraction,
    percolation_sweep,
    victim_order,
)
from repro.stats.rng import make_rng


@pytest.fixture(scope="module")
def ba_graph():
    return BarabasiAlbertGenerator(m=2).generate(400, seed=1)


class TestRemovalSweep:
    def test_starts_at_full_giant(self, ba_graph):
        run = percolation_sweep(ba_graph, AttackStrategy.RANDOM, seed=2)
        assert run.fractions_removed[0] == 0.0
        assert run.giant_fractions[0] == 1.0

    def test_fractions_monotone(self, ba_graph):
        run = percolation_sweep(ba_graph, AttackStrategy.RANDOM, seed=3)
        fr = run.fractions_removed
        assert all(fr[i] < fr[i + 1] for i in range(len(fr) - 1))

    def test_input_graph_untouched(self, ba_graph):
        before = ba_graph.num_nodes
        percolation_sweep(ba_graph, AttackStrategy.DEGREE, seed=4)
        assert ba_graph.num_nodes == before

    def test_reaches_max_fraction(self, ba_graph):
        run = percolation_sweep(ba_graph, max_fraction=0.3, steps=5, seed=5)
        assert run.fractions_removed[-1] == pytest.approx(0.3, abs=0.02)

    def test_targeted_attack_beats_random(self, ba_graph):
        random_run = percolation_sweep(
            ba_graph, AttackStrategy.RANDOM, max_fraction=0.3, seed=6
        )
        attack_run = percolation_sweep(
            ba_graph, AttackStrategy.DEGREE, max_fraction=0.3, seed=6
        )
        assert attack_run.giant_at(0.3) < random_run.giant_at(0.3)

    def test_static_degree_close_to_adaptive(self, ba_graph):
        adaptive = percolation_sweep(
            ba_graph, AttackStrategy.DEGREE, max_fraction=0.2, seed=7
        )
        static = percolation_sweep(
            ba_graph, AttackStrategy.DEGREE_STATIC, max_fraction=0.2, seed=7
        )
        assert static.giant_at(0.2) <= adaptive.giant_at(0.2) + 0.3

    def test_betweenness_strategy_effective(self, ba_graph):
        random_run = percolation_sweep(
            ba_graph, AttackStrategy.RANDOM, max_fraction=0.2, seed=8
        )
        bc_run = percolation_sweep(
            ba_graph, AttackStrategy.BETWEENNESS, max_fraction=0.2, seed=8
        )
        assert bc_run.giant_at(0.2) < random_run.giant_at(0.2)

    def test_random_reproducible(self, ba_graph):
        a = percolation_sweep(ba_graph, AttackStrategy.RANDOM, seed=9)
        b = percolation_sweep(ba_graph, AttackStrategy.RANDOM, seed=9)
        assert a.giant_fractions == b.giant_fractions

    def test_validation(self, ba_graph):
        with pytest.raises(ValueError):
            percolation_sweep(ba_graph, max_fraction=0.0)
        with pytest.raises(ValueError):
            percolation_sweep(ba_graph, steps=0)
        with pytest.raises(ValueError):
            percolation_sweep(Graph())

    def test_giant_at_interpolates(self, ba_graph):
        run = percolation_sweep(ba_graph, AttackStrategy.RANDOM, steps=10, seed=10)
        assert run.giant_at(0.0) == 1.0
        assert run.giant_at(1.0) == run.giant_fractions[-1]


class TestTieBreaking:
    """Equal scores must break by node iteration order — deterministically,
    on every strategy, so the CSR sweep can reproduce the reference."""

    @pytest.fixture()
    def tied_graph(self):
        # Insertion order deliberately scrambled relative to id order, and
        # every node degree-2 (a cycle), so *every* choice is a tie.
        order = [3, 0, 7, 1, 5, 2, 6, 4]
        g = Graph()
        for node in order:
            g.add_node(node)
        for i in range(8):
            g.add_edge(i, (i + 1) % 8)
        return g

    def test_static_degree_ties_follow_iteration_order(self, tied_graph):
        order = victim_order(tied_graph, AttackStrategy.DEGREE_STATIC, make_rng(0))
        assert order == [3, 0, 7, 1, 5, 2, 6, 4]

    def test_betweenness_ties_follow_iteration_order(self, tied_graph):
        # A cycle is vertex-transitive: all betweenness scores are equal,
        # so the order is pure tie-breaking.
        order = victim_order(
            tied_graph, AttackStrategy.BETWEENNESS, make_rng(0),
            betweenness_pivots=8,
        )
        assert order == [3, 0, 7, 1, 5, 2, 6, 4]

    def test_mixed_degrees_sort_stably(self):
        # Two degree bands — 0/4/5 at degree 3, leaves 1/2/3 at degree 1 —
        # and ties within each band keep insertion order (0,1,4,5,2,3).
        g = Graph()
        for u, v in [(0, 1), (0, 4), (0, 5), (4, 5), (4, 2), (5, 3)]:
            g.add_edge(u, v)
        order = victim_order(g, AttackStrategy.DEGREE_STATIC, make_rng(0))
        assert order == [0, 4, 5, 1, 2, 3]

    def test_adaptive_sweep_deterministic_on_ties(self, tied_graph):
        runs = [
            percolation_sweep(
                tied_graph, AttackStrategy.DEGREE, max_fraction=1.0, steps=4,
                seed=0,
            )
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_random_strategy_unaffected_by_tie_rule(self, tied_graph):
        a = victim_order(tied_graph, AttackStrategy.RANDOM, make_rng(5))
        b = victim_order(tied_graph, AttackStrategy.RANDOM, make_rng(5))
        assert a == b
        assert sorted(a) == list(range(8))

    def test_adaptive_strategy_has_no_precomputed_order(self, tied_graph):
        with pytest.raises(ValueError):
            victim_order(tied_graph, AttackStrategy.DEGREE, make_rng(0))


class TestCriticalFraction:
    def test_attack_collapses_heavy_tail(self, ba_graph):
        run = percolation_sweep(
            ba_graph, AttackStrategy.DEGREE, max_fraction=0.6, steps=30, seed=11
        )
        critical = critical_fraction(run)
        assert critical is not None
        assert critical < 0.6

    def test_random_failure_no_collapse_on_heavy_tail(self, ba_graph):
        run = percolation_sweep(
            ba_graph, AttackStrategy.RANDOM, max_fraction=0.5, steps=20, seed=12
        )
        assert critical_fraction(run) is None

    def test_threshold_validation(self, ba_graph):
        run = percolation_sweep(ba_graph, steps=2, seed=13)
        with pytest.raises(ValueError):
            critical_fraction(run, collapse_threshold=0.0)
