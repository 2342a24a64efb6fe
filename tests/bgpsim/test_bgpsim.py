"""Tests for the BGP path-vector simulator."""

import pytest

from repro.bgpsim import (
    CUSTOMER,
    ORIGIN,
    PEER,
    PROVIDER,
    BgpSimulation,
    Route,
    prefer,
    route_class,
)
from repro.core.registry import available_models, make_generator
from repro.economics import RelationshipMap, assign_relationships, routing_table
from repro.graph import Graph, giant_component


@pytest.fixture
def small_hierarchy():
    g = Graph()
    rels = RelationshipMap()
    g.add_edge("top1", "top2")
    rels.add_peering("top1", "top2")
    g.add_edge("mid", "top1")
    rels.add_customer_provider("mid", "top1")
    g.add_edge("leafA", "mid")
    rels.add_customer_provider("leafA", "mid")
    g.add_edge("leafB", "top2")
    rels.add_customer_provider("leafB", "top2")
    return g, rels


class TestRoutePrimitives:
    def test_prefer_class_over_length(self):
        short_provider = Route("d", ("x", "p", "d"), "p", PROVIDER)
        long_customer = Route("d", ("x", "c", "y", "d"), "c", CUSTOMER)
        assert prefer(short_provider, long_customer) is long_customer

    def test_prefer_shorter_within_class(self):
        short = Route("d", ("x", "a", "d"), "a", PEER)
        longer = Route("d", ("x", "b", "y", "d"), "b", PEER)
        assert prefer(short, longer) is short

    def test_prefer_tiebreak_deterministic(self):
        a = Route("d", ("x", "a", "d"), "a", PEER)
        b = Route("d", ("x", "b", "d"), "b", PEER)
        assert prefer(a, b) is a  # "a" < "b"

    def test_prefer_cross_destination_rejected(self):
        a = Route("d1", ("x", "d1"), "d1", CUSTOMER)
        b = Route("d2", ("x", "d2"), "d2", CUSTOMER)
        with pytest.raises(ValueError):
            prefer(a, b)

    def test_loop_detection(self):
        route = Route("d", ("x", "y", "d"), "y", PEER)
        assert route.contains_loop_for("y")
        assert not route.contains_loop_for("z")

    def test_route_class(self, small_hierarchy):
        _, rels = small_hierarchy
        assert route_class(rels, "top1", "mid") == CUSTOMER
        assert route_class(rels, "mid", "top1") == PROVIDER
        assert route_class(rels, "top1", "top2") == PEER


class TestConvergence:
    def test_everyone_routed_on_hierarchy(self, small_hierarchy):
        g, rels = small_hierarchy
        sim = BgpSimulation(g, rels, "leafA")
        stats = sim.converge()
        assert stats.routed_ases == 5
        assert stats.rounds >= 2
        assert stats.messages > 0

    def test_paths_are_valley_free_chains(self, small_hierarchy):
        g, rels = small_hierarchy
        sim = BgpSimulation(g, rels, "leafA")
        sim.converge()
        assert sim.path_from("leafB") == ("leafB", "top2", "top1", "mid", "leafA")

    def test_destination_routes_to_itself(self, small_hierarchy):
        g, rels = small_hierarchy
        sim = BgpSimulation(g, rels, "leafA")
        sim.converge()
        assert sim.path_from("leafA") == ("leafA",)

    def test_missing_destination_rejected(self, small_hierarchy):
        g, rels = small_hierarchy
        with pytest.raises(KeyError):
            BgpSimulation(g, rels, "ghost")

    def test_peer_only_island_unrouted(self):
        g = Graph()
        rels = RelationshipMap()
        g.add_edge("a", "b")
        rels.add_peering("a", "b")
        g.add_edge("c", "d")
        rels.add_peering("c", "d")
        sim = BgpSimulation(g, rels, "a")
        stats = sim.converge()
        assert sim.path_from("c") is None
        assert stats.routed_ases == 2

    def test_agrees_with_declarative_routing(self):
        from repro.generators import PfpGenerator

        g = giant_component(PfpGenerator().generate(250, seed=3))
        rels = assign_relationships(g)
        for dest in sorted(g.nodes(), key=str)[:5]:
            sim = BgpSimulation(g, rels, dest)
            sim.converge()
            table = routing_table(g, rels, dest)
            for node in g.nodes():
                if node == dest:
                    continue
                declarative = table.hops.get(node)
                path = sim.path_from(node)
                simulated = None if path is None else len(path) - 1
                assert declarative == simulated, (dest, node)


class TestRibConsistency:
    """Every converged route rests on its next hop's current route.

    A receiver that kept a neighbor's superseded advertisement would hold
    a path whose tail no longer matches that neighbor's best route; the
    declarative :func:`routing_table` then disagrees on its hop count.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("model", available_models())
    def test_routes_match_next_hop_and_declarative_table(self, model, seed):
        g = giant_component(make_generator(model).generate(300, seed=seed))
        rels = assign_relationships(g)
        for dest in sorted(g.nodes(), key=str)[:10]:
            sim = BgpSimulation(g, rels, dest)
            sim.converge()
            for node, route in sim.rib.items():
                if node != dest:
                    next_hop = sim.rib.get(route.path[1])
                    assert next_hop is not None, (dest, node)
                    assert next_hop.path == route.path[1:], (dest, node)
            table = routing_table(g, rels, dest)
            for node in g.nodes():
                path = sim.path_from(node)
                simulated = None if path is None else len(path) - 1
                assert table.hops.get(node) == simulated, (dest, node)


class TestWithdrawal:
    def test_reconvergence_after_failure(self, small_hierarchy):
        g, rels = small_hierarchy
        sim = BgpSimulation(g, rels, "leafA")
        sim.converge()
        sim.withdraw_link("top1", "top2")
        stats = sim.converge()
        # leafB's only valley-free route crossed the peering: now stranded.
        assert sim.path_from("leafB") is None
        assert stats.routed_ases == 3  # leafA, mid, top1 (and not top2)
        assert sim.path_from("top1") is not None

    def test_withdraw_unknown_link_rejected(self, small_hierarchy):
        g, rels = small_hierarchy
        sim = BgpSimulation(g, rels, "leafA")
        with pytest.raises(KeyError):
            sim.withdraw_link("leafA", "leafB")

    def test_redundant_path_survives_failure(self):
        g = Graph()
        rels = RelationshipMap()
        # stub multihomed to two providers that peer with each other.
        g.add_edge("stub", "p1")
        rels.add_customer_provider("stub", "p1")
        g.add_edge("stub", "p2")
        rels.add_customer_provider("stub", "p2")
        g.add_edge("p1", "p2")
        rels.add_peering("p1", "p2")
        sim = BgpSimulation(g, rels, "stub")
        sim.converge()
        sim.withdraw_link("stub", "p1")
        sim.converge()
        assert sim.path_from("p1") == ("p1", "p2", "stub")
