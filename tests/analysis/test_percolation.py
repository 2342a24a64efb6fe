"""Tests for the Molloy–Reed percolation criterion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    critical_failure_fraction,
    has_giant_component_criterion,
    molloy_reed_ratio,
)
from repro.generators import ErdosRenyiGnm, PfpGenerator
from repro.graph import Graph, giant_component
from repro.resilience import AttackStrategy, critical_fraction, percolation_sweep, removal_sweep


class TestMolloyReed:
    def test_regular_graph_exact(self, k4):
        # All degrees 3: kappa = 9/3 = 3.
        assert molloy_reed_ratio(k4) == pytest.approx(3.0)

    def test_star_value(self, star):
        # degrees [5,1,1,1,1,1]: <k> = 10/6, <k2> = 30/6 → kappa = 3.
        assert molloy_reed_ratio(star) == pytest.approx(3.0)

    def test_heavy_tail_much_larger(self):
        heavy = giant_component(PfpGenerator().generate(800, seed=1))
        flat = giant_component(
            ErdosRenyiGnm(m=heavy.num_edges).generate(800, seed=1)
        )
        assert molloy_reed_ratio(heavy) > 3 * molloy_reed_ratio(flat)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            molloy_reed_ratio(Graph())

    def test_edgeless_rejected(self):
        g = Graph()
        g.add_nodes(range(3))
        with pytest.raises(ValueError):
            molloy_reed_ratio(g)


class TestCriterion:
    def test_connected_dense_graph_passes(self, k5):
        assert has_giant_component_criterion(k5)

    def test_perfect_matching_fails(self):
        g = Graph()
        for i in range(0, 10, 2):
            g.add_edge(i, i + 1)
        # All degree 1: kappa = 1 < 2 — correctly predicts fragmentation.
        assert not has_giant_component_criterion(g)


class TestCriticalFraction:
    def test_heavy_tail_near_one(self):
        heavy = giant_component(PfpGenerator().generate(800, seed=2))
        assert critical_failure_fraction(heavy) > 0.9

    def test_er_moderate(self):
        flat = giant_component(ErdosRenyiGnm(m=1600).generate(800, seed=3))
        # kappa ≈ <k> + 1 = 5 → f_c ≈ 0.75.
        assert 0.6 < critical_failure_fraction(flat) < 0.85

    def test_prediction_consistent_with_sweep(self):
        # Removal below the predicted threshold must keep a giant.
        flat = giant_component(ErdosRenyiGnm(m=1600).generate(800, seed=4))
        predicted = critical_failure_fraction(flat)
        sweep = removal_sweep(
            flat, AttackStrategy.RANDOM, max_fraction=predicted * 0.6,
            steps=5, seed=5,
        )
        assert sweep.giant_fractions[-1] > 0.15

    def test_clamped_to_unit_interval(self, k4):
        assert 0.0 <= critical_failure_fraction(k4) <= 1.0


@st.composite
def small_graphs_with_edges(draw):
    """Small random graphs guaranteed at least one edge (so the degree
    distribution is well defined), with isolated nodes allowed."""
    size = draw(st.integers(min_value=2, max_value=12))
    g = Graph()
    for i in range(size):
        g.add_node(i)
    i, j = draw(
        st.tuples(
            st.integers(0, size - 1), st.integers(0, size - 1)
        ).filter(lambda p: p[0] != p[1])
    )
    g.add_edge(i, j)
    for _ in range(draw(st.integers(min_value=0, max_value=2 * size))):
        u, v = draw(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
        )
        if u != v:
            g.add_edge(u, v)
    return g


class TestMolloyReedProperties:
    """Property tests against exact (rational-arithmetic) enumeration."""

    @given(small_graphs_with_edges())
    @settings(max_examples=80, deadline=None)
    def test_ratio_matches_exact_enumeration(self, g):
        degrees = [g.degree(node) for node in g.nodes()]
        exact = Fraction(sum(k * k for k in degrees), sum(degrees))
        assert molloy_reed_ratio(g) == pytest.approx(float(exact), rel=1e-12)

    @given(small_graphs_with_edges())
    @settings(max_examples=80, deadline=None)
    def test_critical_fraction_closed_form(self, g):
        kappa = molloy_reed_ratio(g)
        fc = critical_failure_fraction(g)
        assert 0.0 <= fc <= 1.0
        if kappa <= 1.0:
            assert fc == 0.0
        else:
            expected = min(max(1.0 - 1.0 / (kappa - 1.0), 0.0), 1.0)
            assert fc == expected
        assert has_giant_component_criterion(g) == (kappa > 2.0)

    @given(st.integers(min_value=3, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_regular_graph_kappa_is_degree(self, size):
        # A cycle is 2-regular: <k²>/<k> = 4/2 = 2 exactly, the criterion
        # boundary.
        g = Graph()
        for i in range(size):
            g.add_edge(i, (i + 1) % size)
        assert molloy_reed_ratio(g) == pytest.approx(2.0)
        assert not has_giant_component_criterion(g)


class TestPredictionVsMeasuredCollapse:
    """The closed form must land within a band of the sweep's measured
    collapse point (configuration-model wiring → ER is the fair test)."""

    @pytest.mark.parametrize("seed", [7, 8])
    def test_er_collapse_point_in_band(self, seed):
        # Sparse ER: <k> = 3 → kappa ≈ 4 → predicted f_c ≈ 0.67, low
        # enough that a max_fraction=0.95 sweep can observe the collapse.
        g = giant_component(ErdosRenyiGnm(m=900).generate(600, seed=seed))
        predicted = critical_failure_fraction(g)
        sweep = percolation_sweep(
            g, AttackStrategy.RANDOM, max_fraction=0.95, steps=40, seed=seed,
        )
        measured = critical_fraction(sweep, collapse_threshold=0.05)
        assert measured is not None
        assert abs(measured - predicted) < 0.2, (measured, predicted)

    def test_heavy_tail_prediction_matches_no_collapse(self):
        # f_c near 1 predicts the sweep never collapses by 50% removal.
        heavy = giant_component(PfpGenerator().generate(800, seed=2))
        assert critical_failure_fraction(heavy) > 0.9
        sweep = percolation_sweep(
            heavy, AttackStrategy.RANDOM, max_fraction=0.5, steps=20, seed=3,
        )
        assert critical_fraction(sweep, collapse_threshold=0.05) is None
