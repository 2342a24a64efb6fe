"""Synchronous path-vector simulation engine.

Simulates BGP's propagation mechanics for one destination prefix:

* the destination originates a route to itself;
* each round, every AS whose best route changed last round advertises it to
  the neighbors its export policy allows — **customer-learned routes go to
  everyone; peer- and provider-learned routes go to customers only**
  (Gao–Rexford export) — and withdraws it from neighbors that hold its
  previous advertisement but may no longer receive one;
* each receiver keeps every neighbor's latest advertisement (its
  Adj-RIB-In): a new advertisement replaces that neighbor's previous one,
  and a looped one (the path already contains the receiver) withdraws it.
  The best route is chosen over what the Adj-RIB-In holds — customer >
  peer > provider, then shortest path, then deterministic tie-break — so a
  route never outlives the neighbor route it was built on;
* the run converges when a round produces no best-route change.

The engine counts rounds and messages — the *dynamics* the closed-form
:func:`repro.economics.routing.routing_table` cannot see — and supports
link withdrawal to measure reconvergence (BGP path exploration).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Dict, Hashable, List, Optional, Tuple

from ..economics.relationships import Relationship, RelationshipMap
from ..graph.graph import Graph
from .routes import CUSTOMER, ORIGIN, Route, prefer, route_class

__all__ = ["ConvergenceStats", "BgpSimulation"]

Node = Hashable


@dataclass(frozen=True)
class ConvergenceStats:
    """Outcome of one convergence run."""

    destination: Node
    rounds: int
    messages: int
    routed_ases: int

    def __str__(self) -> str:
        return (
            f"dest={self.destination!r}: {self.rounds} rounds, "
            f"{self.messages} messages, {self.routed_ases} ASes routed"
        )


class BgpSimulation:
    """Path-vector propagation for one destination on one topology.

    The simulation owns per-AS RIBs (best route per AS) and the Adj-RIB-In
    they are chosen from (latest advertisement per neighbor).  ``converge()``
    runs to a fixed point; ``withdraw_link()`` then models a failure and
    ``converge()`` again measures reconvergence.  The topology reference is
    read-only — withdrawals are tracked internally.
    """

    def __init__(self, graph: Graph, rels: RelationshipMap, destination: Node):
        if not graph.has_node(destination):
            raise KeyError(f"destination {destination!r} not in graph")
        self._graph = graph
        self._rels = rels
        self.destination = destination
        self._down_links: set = set()
        self.rib: Dict[Node, Route] = {}
        self._reset()

    def _reset(self) -> None:
        origin = Route(
            destination=self.destination,
            path=(self.destination,),
            learned_from=None,
            pref_class=ORIGIN,
        )
        self.rib = {self.destination: origin}
        # receiver → sender → the route the receiver would use through it
        self._adj_in: Dict[Node, Dict[Node, Route]] = {}
        self._pending: List[Node] = [self.destination]

    # ------------------------------------------------------------- policy

    def _link_up(self, u: Node, v: Node) -> bool:
        return frozenset((u, v)) not in self._down_links

    def _exports(self, owner: Node, route: Optional[Route], neighbor: Node) -> bool:
        """Whether the export policy lets *owner* advertise *route* to
        *neighbor*: customer routes go to everyone, peer/provider routes
        only to customers, and an AS without a route advertises nothing."""
        if route is None:
            return False
        if route.pref_class in (ORIGIN, CUSTOMER):
            return True
        rel = self._rels.relationship(owner, neighbor)
        return rel is Relationship.PROVIDER_TO_CUSTOMER

    def _receive(self, receiver: Node, sender: Node, advertised: Optional[Route]) -> bool:
        """Apply *sender*'s advertisement — None for a withdrawal — to
        *receiver*'s Adj-RIB-In and rerun its decision process over it.
        Returns True if the receiver's best route changed."""
        if receiver == self.destination:
            return False  # the origin keeps its own route
        held = self._adj_in.setdefault(receiver, {})
        if advertised is None or advertised.contains_loop_for(receiver):
            if held.pop(sender, None) is None:
                return False
        else:
            held[sender] = Route(
                destination=advertised.destination,
                path=(receiver,) + advertised.path,
                learned_from=sender,
                pref_class=route_class(self._rels, receiver, sender),
            )
        best = reduce(prefer, held.values()) if held else None
        incumbent = self.rib.get(receiver)
        if best is None:
            return self.rib.pop(receiver, None) is not None
        if incumbent is not None and best.path == incumbent.path:
            return False
        self.rib[receiver] = best
        return True

    # ------------------------------------------------------------- running

    def converge(self, max_rounds: int = 10_000) -> ConvergenceStats:
        """Propagate until stable; returns rounds/messages statistics."""
        rounds = 0
        messages = 0
        while self._pending:
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError("BGP simulation failed to converge")
            changed_next: List[Node] = []
            changed_set = set()
            for owner in self._pending:
                route = self.rib.get(owner)
                for neighbor in sorted(self._graph.neighbors(owner), key=str):
                    if not self._link_up(owner, neighbor):
                        continue
                    if self._exports(owner, route, neighbor):
                        advertised = route
                    elif owner in self._adj_in.get(neighbor, ()):
                        advertised = None  # withdraw what it holds from owner
                    else:
                        continue
                    messages += 1
                    if (
                        self._receive(neighbor, owner, advertised)
                        and neighbor not in changed_set
                    ):
                        changed_set.add(neighbor)
                        changed_next.append(neighbor)
            self._pending = changed_next
        return ConvergenceStats(
            destination=self.destination,
            rounds=rounds,
            messages=messages,
            routed_ases=len(self.rib),
        )

    def withdraw_link(self, u: Node, v: Node) -> None:
        """Fail the link (u, v) and invalidate every route crossing it.

        Affected ASes fall back to their remaining advertisements at the
        next :meth:`converge` call; routes are recomputed from scratch for
        correctness (full-table walk), which models a hard session reset.
        """
        if not self._graph.has_edge(u, v):
            raise KeyError(f"link ({u!r}, {v!r}) not in topology")
        self._down_links.add(frozenset((u, v)))
        # Restart propagation without the failed link.  (A message-level
        # withdraw dance would converge to the same fixed point; rounds
        # reported afterwards measure full reconvergence.)
        self._reset()

    def path_from(self, source: Node) -> Optional[Tuple[Node, ...]]:
        """The converged AS path from *source*, or None if unrouted."""
        route = self.rib.get(source)
        return route.path if route is not None else None
