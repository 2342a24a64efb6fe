"""Tests for market evolution dynamics."""

import pytest

from repro.economics import MarketEvolution, simulate_market_evolution
from repro.economics.market import PricingModel
from repro.generators import GlpGenerator, SerranoGenerator
from repro.graph import giant_component


@pytest.fixture(scope="module")
def serrano_run():
    return SerranoGenerator().generate_detailed(400, seed=4)


@pytest.fixture(scope="module")
def evolution(serrano_run):
    return simulate_market_evolution(
        serrano_run.graph,
        users=serrano_run.users,
        rounds=5,
        num_flows=400,
        seed=5,
    )


class TestSimulation:
    def test_round_count(self, evolution):
        assert len(evolution.rounds) == 5

    def test_round_indices_sequential(self, evolution):
        assert [r.round_index for r in evolution.rounds] == list(range(5))

    def test_as_count_never_grows(self, evolution):
        counts = [r.num_ases for r in evolution.rounds]
        assert all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))

    def test_providers_consolidate(self, evolution):
        first = evolution.rounds[0].num_providers
        last = evolution.rounds[-1].num_providers
        assert last < first

    def test_exits_accumulate(self, evolution):
        assert evolution.total_exits == sum(r.exits for r in evolution.rounds)
        assert evolution.total_exits > 0

    def test_market_stays_routable(self, evolution):
        assert all(r.unroutable_fraction < 0.3 for r in evolution.rounds)

    def test_final_graph_present(self, evolution):
        assert evolution.final_graph is not None
        assert evolution.final_graph.num_nodes == evolution.rounds[-1].num_ases
        assert evolution.final_report is not None

    def test_final_report_settles_final_graph(self, evolution):
        assert evolution.rounds[-1].exits == 0
        assert set(evolution.final_report.books) == set(
            evolution.final_graph.nodes()
        )

    def test_original_graph_untouched(self, serrano_run):
        before = serrano_run.graph.num_nodes
        simulate_market_evolution(
            serrano_run.graph, users=serrano_run.users, rounds=2,
            num_flows=200, seed=6,
        )
        assert serrano_run.graph.num_nodes == before

    def test_concentration_trend_definition(self, evolution):
        expected = (
            evolution.rounds[-1].transit_hhi - evolution.rounds[0].transit_hhi
        )
        assert evolution.concentration_trend == pytest.approx(expected)


class TestParameters:
    def test_validation(self, serrano_run):
        with pytest.raises(ValueError):
            simulate_market_evolution(serrano_run.graph, rounds=0)
        with pytest.raises(ValueError):
            simulate_market_evolution(serrano_run.graph, patience=0)

    def test_default_users_degree_based(self):
        g = GlpGenerator().generate(200, seed=7)
        evo = simulate_market_evolution(g, rounds=2, num_flows=200, seed=8)
        assert len(evo.rounds) == 2

    def test_generous_pricing_no_exits(self, serrano_run):
        # With every cost channel zeroed, profit reduces to retail revenue
        # and nobody can lose money.
        pricing = PricingModel(
            transit_price=0.0, retail_price=100.0, peering_cost=0.0,
            carriage_cost=0.0, link_cost=0.0,
        )
        evo = simulate_market_evolution(
            serrano_run.graph, users=serrano_run.users, pricing=pricing,
            rounds=3, num_flows=200, seed=9,
        )
        assert evo.total_exits == 0

    def test_high_patience_delays_exits(self, serrano_run):
        impatient = simulate_market_evolution(
            serrano_run.graph, users=serrano_run.users, rounds=3,
            patience=1, num_flows=300, seed=10,
        )
        patient = simulate_market_evolution(
            serrano_run.graph, users=serrano_run.users, rounds=3,
            patience=3, num_flows=300, seed=10,
        )
        assert patient.rounds[0].exits == 0
        assert impatient.total_exits >= patient.total_exits
