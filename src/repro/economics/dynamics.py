"""Market dynamics: can an AS *keep* making a living?

The static settlement (:mod:`repro.economics.market`) prices one month.
This module iterates: each round the books are settled, persistently
unprofitable transit providers **exit**, their customers **re-home** to
surviving providers (preferentially by provider size, the same
rich-get-richer force that shaped the topology), and the market is settled
again.  The process reproduces the consolidation arc of the transit
industry — revenue concentrates, the provider count shrinks, stubs persist
on retail revenue.

Exit rule: a *transit provider* (an AS with customers) whose profit is
negative for ``patience`` consecutive rounds leaves the market.  Stubs
never exit (their profitability depends on retail pricing outside the
model's scope); tier-1 ASes exit like anyone else, which is how default-
free-zone consolidation shows up.  Exits follow a round's settlement, and
the last round's settlement is final: no provider exits after it, so the
final graph, the final report and the last round describe one market.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from ..graph.graph import Graph
from ..graph.traversal import giant_component
from ..stats.rng import SeedLike, make_rng
from ..stats.sampling import weighted_choice
from .market import MarketReport, PricingModel, herfindahl_index, settle_market
from .relationships import RelationshipMap, assign_relationships
from .traffic import gravity_flows, route_flows

__all__ = ["MarketRound", "MarketEvolution", "simulate_market_evolution"]

Node = Hashable


@dataclass(frozen=True)
class MarketRound:
    """One settled round of the evolving market.

    ``exits`` counts the providers that left after this round's
    settlement; it is 0 for the last round, whose market is the final one.
    """

    round_index: int
    num_ases: int
    num_providers: int
    exits: int
    transit_hhi: float
    profitable_fraction: float
    unroutable_fraction: float


@dataclass
class MarketEvolution:
    """Full trajectory of the consolidation simulation.

    ``final_graph`` and ``final_report`` are the market the last round
    settled, the one ``rounds[-1]`` describes.
    """

    rounds: List[MarketRound] = field(default_factory=list)
    final_graph: Optional[Graph] = None
    final_report: Optional[MarketReport] = None

    @property
    def total_exits(self) -> int:
        """Providers that left the market over the whole run."""
        return sum(r.exits for r in self.rounds)

    @property
    def concentration_trend(self) -> float:
        """Final HHI minus initial HHI (positive = consolidating)."""
        if len(self.rounds) < 2:
            return 0.0
        return self.rounds[-1].transit_hhi - self.rounds[0].transit_hhi


def _rehome_customers(
    graph: Graph,
    rels: RelationshipMap,
    dead: Node,
    rng,
) -> None:
    """Re-attach the dead provider's customers to surviving providers.

    Each orphan picks a new provider among the dead AS's *other* neighbors'
    providers and the market's remaining providers, weighted by degree (the
    bigger carrier wins the RFP).  Orphans that already have another
    provider just lose the link.
    """
    customers = rels.customers(dead)
    survivors = [
        node
        for node in graph.nodes()
        if node != dead and rels.customers(node) and node not in customers
    ]
    for orphan in sorted(customers, key=str):
        if not graph.has_node(orphan):
            continue  # the orphan itself exited earlier this round
        other_providers = {
            p for p in rels.providers(orphan) - {dead} if graph.has_node(p)
        }
        if other_providers or not survivors:
            continue  # multihomed (or nobody left to sell transit)
        weights = [graph.degree(s) + 1.0 for s in survivors]
        choice = survivors[weighted_choice(weights, rng)]
        if not graph.has_edge(orphan, choice):
            graph.add_edge(orphan, choice)
        rels.add_customer_provider(customer=orphan, provider=choice)


def simulate_market_evolution(
    graph: Graph,
    users: Optional[Dict[Node, float]] = None,
    pricing: Optional[PricingModel] = None,
    rounds: int = 6,
    patience: int = 2,
    num_flows: int = 1000,
    seed: SeedLike = 0,
) -> MarketEvolution:
    """Run *rounds* of settle → exit → re-home on a copy of *graph*."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if patience < 1:
        raise ValueError("patience must be >= 1")
    rng = make_rng(seed)
    market = giant_component(graph).copy()
    if users is None:
        users = {node: 1.0 + market.degree(node) for node in market.nodes()}
    else:
        users = {node: float(users.get(node, 1.0)) for node in market.nodes()}

    evolution = MarketEvolution()
    losing_streak: Dict[Node, int] = {}
    rels = assign_relationships(market)
    for round_index in range(rounds):
        active_users = {n: users[n] for n in market.nodes()}
        matrix = gravity_flows(
            active_users, num_flows=num_flows, seed=rng.getrandbits(32)
        )
        traffic = route_flows(market, rels, matrix)
        report = settle_market(market, rels, traffic, users=active_users, pricing=pricing)

        # Update losing streaks for transit providers.
        to_exit: List[Node] = []
        for node, books in report.books.items():
            if not rels.customers(node):
                losing_streak.pop(node, None)
                continue
            if books.profit < 0:
                losing_streak[node] = losing_streak.get(node, 0) + 1
                if losing_streak[node] >= patience and market.num_nodes > 10:
                    to_exit.append(node)
            else:
                losing_streak[node] = 0
        if round_index == rounds - 1:
            to_exit = []  # this settlement is final

        routed = sum(traffic.originated.values())
        total = routed + traffic.unroutable
        evolution.rounds.append(
            MarketRound(
                round_index=round_index,
                num_ases=market.num_nodes,
                num_providers=sum(
                    1 for node in market.nodes() if rels.customers(node)
                ),
                exits=len(to_exit),
                transit_hhi=report.transit_revenue_concentration(),
                profitable_fraction=report.profitable_fraction(),
                unroutable_fraction=(traffic.unroutable / total) if total else 0.0,
            )
        )

        for dead in sorted(to_exit, key=str):
            _rehome_customers(market, rels, dead, rng)
            market.remove_node(dead)
            users.pop(dead, None)
            losing_streak.pop(dead, None)
        if to_exit:
            market = giant_component(market)
            users = {n: users[n] for n in market.nodes()}
            # Relationships are re-inferred on the consolidated topology.
            rels = assign_relationships(market)

    evolution.final_graph = market
    evolution.final_report = report
    return evolution
