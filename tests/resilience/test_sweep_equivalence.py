"""Percolation equivalence suite: the CSR sweeps against their oracles.

The vectorized robustness battery (:mod:`repro.resilience.sweep`) promises
bit-for-bit agreement with the reference sweep and loops in
:mod:`tests.resilience.oracles` on every strategy, seed, and graph shape.
These property tests enforce it on hypothesis-generated graphs covering
isolated nodes, multi-component graphs, and duplicate-degree
tie-breaking, plus:

* exact trajectory equality for the sampled path-inflation sweep (integer
  distance accumulation makes even the sampled means bit-identical);
* a KS band tying the sweep's sampled sources to the full all-pairs
  distance population;
* the whole ``robustness`` bundle equal to the oracles' bundle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import BarabasiAlbertGenerator
from repro.graph import Graph
from repro.resilience import (
    AttackStrategy,
    link_redundancy,
    path_inflation_sweep,
    percolation_sweep,
    robustness_summary,
    shortcut_fraction,
)
from repro.stats.rng import derive_seed, make_rng

from ..graph.oracles import distance_batch, reference
from .oracles import ORACLES, removal_sweep


def oracle(fn, *args, **kwargs):
    """*fn*'s value with the robustness kernels swapped for their oracles."""
    return reference(fn, *args, table=ORACLES, **kwargs)


# Node-id pools exercising non-integer ids (positions must follow node
# iteration order for any id type, not just integers).
NODE_POOLS = (
    list(range(24)),
    [f"as{i}" for i in range(24)],
    [(i // 5, i % 5) for i in range(25)],
)

STRATEGIES = sorted(AttackStrategy, key=lambda s: s.value)


@st.composite
def graphs(draw):
    """Random small graphs: isolated nodes, multiple components, heavy
    degree ties, assorted node-id types."""
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
    for _ in range(edge_count):
        i, j = draw(pairs)
        if i == j:
            continue
        g.add_edge(nodes[i], nodes[j])
    return g


def assert_trajectories_equal(a, b):
    """Exact (NaN-aware for inflation means) trajectory equality."""
    assert a.strategy == b.strategy
    assert a.fractions_removed == b.fractions_removed
    left = getattr(a, "giant_fractions", None) or a.mean_distances
    right = getattr(b, "giant_fractions", None) or b.mean_distances
    assert len(left) == len(right)
    for x, y in zip(left, right):
        if isinstance(x, float) and math.isnan(x):
            assert math.isnan(y), (x, y)
        else:
            assert x == y, (x, y)


class TestPercolationEquivalence:
    @given(
        graphs(),
        st.sampled_from(STRATEGIES),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([0.3, 0.5, 1.0]),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_for_bit_all_strategies(self, g, strategy, seed, fraction, steps):
        py = oracle(
            percolation_sweep, g, strategy, max_fraction=fraction, steps=steps,
            seed=seed,
        )
        cs = percolation_sweep(
            g, strategy, max_fraction=fraction, steps=steps, seed=seed,
        )
        assert py == cs  # giant trajectories carry no NaN: exact dataclass equality

    @given(st.sampled_from(STRATEGIES), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_duplicate_degree_ties(self, strategy, seed):
        # A cycle: every node degree-2, every victim choice a tie — the
        # sweep is pure tie-breaking, so any ordering discrepancy between
        # the dict reference and the argmax kernel shows up immediately.
        g = Graph()
        for i in range(17):
            g.add_edge(i, (i + 1) % 17)
        py = oracle(
            percolation_sweep, g, strategy, max_fraction=1.0, steps=5, seed=seed
        )
        cs = percolation_sweep(g, strategy, max_fraction=1.0, steps=5, seed=seed)
        assert py == cs

    def test_isolated_nodes_and_components(self):
        g = Graph()
        for i in range(12):
            g.add_node(i)
        for u, v in [(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (9, 10)]:
            g.add_edge(u, v)
        for strategy in STRATEGIES:
            py = oracle(
                percolation_sweep, g, strategy, max_fraction=1.0, steps=4, seed=2
            )
            cs = percolation_sweep(g, strategy, max_fraction=1.0, steps=4, seed=2)
            assert py == cs
            assert cs.giant_fractions[-1] == 0.0  # everything removed

    def test_python_backend_is_the_reference(self):
        assert ORACLES[percolation_sweep] is removal_sweep
        g = BarabasiAlbertGenerator(m=2).generate(120, seed=4)
        direct = removal_sweep(g, AttackStrategy.DEGREE, steps=7, seed=6)
        swept = percolation_sweep(g, AttackStrategy.DEGREE, steps=7, seed=6)
        assert swept == direct

    def test_input_graph_untouched_by_csr_sweep(self):
        g = BarabasiAlbertGenerator(m=2).generate(150, seed=5)
        nodes, edges = g.num_nodes, g.num_edges
        percolation_sweep(g, AttackStrategy.DEGREE, seed=1)
        assert (g.num_nodes, g.num_edges) == (nodes, edges)

    def test_validation_parity(self):
        g = BarabasiAlbertGenerator(m=2).generate(60, seed=1)
        for sweep in (removal_sweep, percolation_sweep):
            with pytest.raises(ValueError):
                sweep(g, max_fraction=0.0)
            with pytest.raises(ValueError):
                sweep(g, steps=0)
            with pytest.raises(ValueError):
                sweep(Graph())


class TestInflationEquivalence:
    @given(
        graphs(),
        st.sampled_from(STRATEGIES),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_for_bit(self, g, strategy, seed):
        py = oracle(
            path_inflation_sweep, g, strategy, max_fraction=0.5, steps=3,
            samples=6, seed=seed,
        )
        cs = path_inflation_sweep(
            g, strategy, max_fraction=0.5, steps=3, samples=6, seed=seed,
        )
        assert_trajectories_equal(py, cs)

    def test_sampled_sources_track_population_ks_band(self):
        # The sweep's step-0 sources are a seeded draw from all nodes; the
        # distances they see must be KS-close to the full all-pairs
        # population, and the sweep's reported mean must be exactly the
        # sampled population's integer-ratio mean.
        g = BarabasiAlbertGenerator(m=2).generate(400, seed=3)
        view = g.csr()
        n = view.num_nodes
        full = distance_batch(view, np.arange(n, dtype=np.int64))
        population = full[full > 0]

        seed = 11
        samples = 64
        sources = make_rng(derive_seed("inflation-sources", seed, 0)).sample(
            list(g.nodes()), samples
        )
        positions = np.fromiter(
            (view.index[s] for s in sources), dtype=np.int64, count=samples
        )
        sampled = full[:, positions][full[:, positions] > 0]

        traj = path_inflation_sweep(
            g, AttackStrategy.RANDOM, max_fraction=0.3, steps=1,
            samples=samples, seed=seed,
        )
        expected_mean = int(sampled.sum(dtype=np.int64)) / int(sampled.size)
        assert traj.mean_distances[0] == expected_mean

        top = max(int(population.max()), int(sampled.max()))
        grid = np.arange(1, top + 1)
        pop_cdf = np.searchsorted(np.sort(population), grid, side="right") / population.size
        sam_cdf = np.searchsorted(np.sort(sampled), grid, side="right") / sampled.size
        ks = float(np.abs(pop_cdf - sam_cdf).max())
        assert ks < 0.15, f"sampled-distance KS statistic {ks:.3f} out of band"

    def test_fragmented_graph_goes_nan_identically(self):
        g = Graph()
        for i in range(8):
            g.add_node(i)
        g.add_edge(0, 1)
        py = oracle(
            path_inflation_sweep, g, AttackStrategy.DEGREE, max_fraction=1.0,
            steps=2, samples=4, seed=1,
        )
        cs = path_inflation_sweep(
            g, AttackStrategy.DEGREE, max_fraction=1.0, steps=2, samples=4,
            seed=1,
        )
        assert_trajectories_equal(py, cs)
        assert math.isnan(cs.mean_distances[-1])

    def test_samples_validation(self):
        g = BarabasiAlbertGenerator(m=2).generate(50, seed=1)
        for sweep in (ORACLES[path_inflation_sweep], path_inflation_sweep):
            with pytest.raises(ValueError):
                sweep(g, samples=0)


class TestRedundancyEquivalence:
    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_shortcut_fraction_bit_for_bit(self, g):
        py = oracle(shortcut_fraction, g)
        cs = shortcut_fraction(g)
        if math.isnan(py):
            assert math.isnan(cs)
        else:
            assert py == cs

    @given(graphs())
    @settings(max_examples=25, deadline=None)
    def test_link_redundancy_backend_neutral(self, g):
        py = oracle(link_redundancy, g)
        cs = link_redundancy(g)
        if math.isnan(py):
            assert math.isnan(cs)
        else:
            assert py == cs

    def test_known_values(self):
        # Triangle + pendant: 3 cycle edges redundant, 1 bridge; only the
        # triangle's edges have two-hop bypasses.
        g = Graph()
        for u, v in [(0, 1), (1, 2), (2, 0), (2, 3)]:
            g.add_edge(u, v)
        assert link_redundancy(g) == 0.75
        assert shortcut_fraction(g) == 0.75
        empty = Graph()
        empty.add_node("a")
        assert math.isnan(link_redundancy(empty))
        assert math.isnan(shortcut_fraction(empty))

    def test_robustness_summary_identity(self):
        g = BarabasiAlbertGenerator(m=2).generate(200, seed=8)
        py = oracle(robustness_summary, g, seed=5)
        cs = robustness_summary(g, seed=5)
        assert set(py) == set(cs)
        for key, value in py.items():
            if math.isnan(value):
                assert math.isnan(cs[key])
            else:
                assert value == cs[key]
