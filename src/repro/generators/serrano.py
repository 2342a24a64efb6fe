"""Weighted supply/demand growth model (Serrano–Boguñá–Díaz-Guilera).

The genre exemplar of *environment-coupled* internet models: the network is
not isolated but embedded in an exponentially growing pool of users that
demand service, and ASes adapt their bandwidth to the users they win.

Per unit time step (one "month"):

1. **demand growth** — ``ΔW(t)`` new users arrive and choose an AS by
   linear preference ``Π_i = ω_i / W``;
2. **supply growth** — ``ΔN(t)`` new ASes appear, each seeded with ``ω₀``
   users withdrawn uniformly from existing ASes (W is conserved);
3. **churn** — optionally, a fraction ``churn`` of users relocate by the
   same preference (the λ term: pure diffusion, no drift);
4. **adaptation** — every AS targets bandwidth
   ``b_i = 1 + a(t) (ω_i − ω₀)`` with ``a(t) = 2 B(t) / W(t)`` and
   ``B(t) = B0 e^{δ' t}``; the shortfall ``Δb_i`` is its *activity*.
   Pairs are drawn with probability ∝ Δb_i Δb_j among active nodes; an
   accepted pair forms one link (or reinforces an existing one — edge
   weight is bandwidth in discrete units) and keeps adding parallel units
   with probability ``r`` while both still need bandwidth.  With
   ``distance=True`` nodes live on a fractal set (D_f ≈ 1.5) and a pair at
   distance d is accepted with probability ``exp(-d / d_c)``,
   ``d_c = ω_i ω_j / (κ W)`` — long links are affordable only to large ASes.

Analytic targets the experiments check against: size distribution exponent
``1 + α/β``, degree exponent ``γ = 1 + 1/(2 − δ/β)`` with
``δ = 2β − αβ/δ'``, and the degree–bandwidth scaling ``k ∝ b^μ``,
``μ = β/δ'`` (F9).

Scale note: the original simulations used ``ω₀ = 5000`` (then W ≈ 5·10⁷
users at the 2001-map size).  User arrivals are simulated individually in
aggregate batches, so the default here is ``ω₀ = 50``, which preserves every
ratio the analysis depends on (ω₀ only sets the resource granularity) while
keeping harness runtimes in seconds.  Pass ``omega0=5000`` to reproduce the
original scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..environment.growth import GrowthSeries
from ..geometry.fractal import FractalBoxSet
from ..geometry.plane import Plane, Point
from ..graph.graph import Graph
from ..stats.rng import SeedLike, make_numpy_rng, make_rng
from .base import GenerationError, TopologyGenerator, _validate_size

__all__ = ["SerranoGenerator", "SerranoRun"]


@dataclass
class SerranoRun:
    """Full output of one simulation: topology plus model state.

    ``graph`` — the weighted AS topology (edge weight = bandwidth units);
    ``users`` — final ω_i per AS;
    ``positions`` — node → Point when geography was on, else empty;
    ``history`` — GrowthSeries for W, N, E and B over simulated months;
    ``snapshots`` — size → frozen topology copy, captured the first time
    the node count reached each requested threshold (temporal snapshots of
    *one* growth history, for scaling and kernel measurements).
    """

    graph: Graph
    users: Dict[int, int]
    positions: Dict[int, Point] = field(default_factory=dict)
    history: Dict[str, GrowthSeries] = field(default_factory=dict)
    snapshots: Dict[int, Graph] = field(default_factory=dict)

    @property
    def total_users(self) -> int:
        """Total users W at the end of the run."""
        return int(sum(self.users.values()))


class SerranoGenerator(TopologyGenerator):
    """Weighted supply/demand growth with optional distance constraints.

    Each adaptation round draws whole blocks of activity-weighted pairs by
    ``searchsorted`` over the cumulative activity, applies the
    ``exp(-d/d_c)`` distance acceptance blockwise, realizes bandwidth
    reinforcement as geometric unit batches, and commits the round through
    one bulk insert (see :meth:`_adapt`).
    """

    name = "serrano"
    engine_sensitive = True

    def __init__(
        self,
        omega0: int = 50,
        n0: int = 2,
        b0: float = 1.0,
        alpha: float = 0.035,
        beta: float = 0.03,
        delta_prime: float = 0.04,
        r: float = 0.8,
        churn: float = 0.0,
        distance: bool = False,
        fractal_dimension: float = 1.5,
        kappa: Optional[float] = None,
        nn_cutoff_factor: float = 4.0,
    ):
        if omega0 < 2:
            raise ValueError("omega0 must be >= 2")
        if n0 < 2:
            raise ValueError("n0 must be >= 2")
        if b0 <= 0:
            raise ValueError("b0 must be positive")
        if alpha <= 0 or beta <= 0 or delta_prime <= 0:
            raise ValueError("growth rates must be positive")
        if beta >= alpha:
            raise ValueError("the model requires alpha > beta (demand outgrows supply)")
        if delta_prime <= alpha:
            raise ValueError("delta' must exceed alpha (traffic outgrows demand)")
        if not 0 <= r < 1:
            raise ValueError("r must be in [0, 1)")
        if not 0 <= churn < 1:
            raise ValueError("churn must be in [0, 1)")
        self.omega0 = omega0
        self.n0 = n0
        self.b0 = b0
        self.alpha = alpha
        self.beta = beta
        self.delta_prime = delta_prime
        self.r = r
        self.churn = churn
        self.distance = distance
        self.fractal_dimension = fractal_dimension
        self.kappa = kappa
        self.nn_cutoff_factor = nn_cutoff_factor

    # ----------------------------------------------------------- predictions

    @property
    def tau(self) -> float:
        """β/α — size-distribution exponent is 1 + 1/τ · τ = 1 + τ⁻¹·…;
        p(ω) ~ ω^-(1+τ) with this τ… i.e. size exponent = 1 + α/β."""
        return self.beta / self.alpha

    @property
    def predicted_mu(self) -> float:
        """Degree–bandwidth exponent μ = β/δ′."""
        return self.beta / self.delta_prime

    @property
    def predicted_delta(self) -> float:
        """Edge growth rate δ = 2β − αβ/δ′ (from E ∝ N^(2−α/δ′))."""
        return 2.0 * self.beta - self.alpha * self.beta / self.delta_prime

    @property
    def predicted_gamma(self) -> float:
        """Degree exponent γ = 1 + 1/(2 − δ/β)."""
        return 1.0 + 1.0 / (2.0 - self.predicted_delta / self.beta)

    # ------------------------------------------------------------ simulation

    def _auto_kappa(self, n: int) -> float:
        """κ such that, at final W, two minimum-size ASes see a distance
        cutoff of ``nn_cutoff_factor`` nearest-neighbor spacings.

        Nearest-neighbor spacing on a D_f-dimensional set of n points in the
        unit square scales as n^(-1/D_f)."""
        w_final = self.omega0 * self.n0 * (n / self.n0) ** (self.alpha / self.beta)
        d_target = self.nn_cutoff_factor * n ** (-1.0 / self.fractal_dimension)
        return self.omega0**2 / (d_target * w_final)

    def generate(self, n: int, seed: SeedLike = None) -> Graph:
        """Grow the weighted topology to exactly *n* ASes."""
        return self.generate_detailed(n, seed=seed).graph

    def generate_detailed(
        self,
        n: int,
        seed: SeedLike = None,
        snapshot_sizes: Optional[List[int]] = None,
    ) -> SerranoRun:
        """Run the full simulation, returning topology plus model state.

        *snapshot_sizes* (ascending node counts below *n*) captures frozen
        copies of the topology the first time the network reaches each
        size — true temporal snapshots of a single growth history.
        """
        _validate_size(n, minimum=self.n0 + 1)
        pending_snapshots = sorted(set(snapshot_sizes or []))
        if pending_snapshots and (
            pending_snapshots[0] <= self.n0 or pending_snapshots[-1] > n
        ):
            raise ValueError("snapshot sizes must lie in (n0, n]")
        rng = make_rng(seed)
        np_rng = make_numpy_rng(rng.getrandbits(63))
        kappa = self.kappa if self.kappa is not None else (
            self._auto_kappa(n) if self.distance else 0.0
        )

        fractal = (
            FractalBoxSet(dimension=self.fractal_dimension, seed=rng)
            if self.distance
            else None
        )
        positions: List[Point] = []
        # Coordinate arrays mirror `positions` so the adaptation kernel can
        # compute distance blocks without attribute chasing.
        xs = np.empty(n, dtype=np.float64) if fractal is not None else None
        ys = np.empty(n, dtype=np.float64) if fractal is not None else None

        graph = Graph(name=self.name + ("-distance" if self.distance else ""))
        omega = np.zeros(n, dtype=np.float64)
        num_nodes = self.n0
        for i in range(self.n0):
            graph.add_node(i)
            omega[i] = self.omega0
            if fractal is not None:
                point = fractal.sample_point()
                positions.append(point)
                xs[i] = point.x
                ys[i] = point.y
        # Seed topology: a chain over the n0 initial ASes.
        for i in range(self.n0 - 1):
            graph.add_edge(i, i + 1)
        strength = np.zeros(n, dtype=np.float64)
        for i in range(self.n0):
            strength[i] = graph.strength(i)

        history = {
            key: GrowthSeries(name=key) for key in ("users", "nodes", "edges", "bandwidth")
        }
        w0_total = float(self.omega0 * self.n0)
        total_steps = max(1, math.ceil(math.log(n / self.n0) / self.beta))

        snapshots: Dict[int, Graph] = {}
        self._record(history, 0.0, omega, num_nodes, graph)
        t = 0
        with self.trace_phase("grow", n=n):
            while num_nodes < n:
                t += 1
                if t > 4 * total_steps + 100:
                    raise GenerationError("growth failed to reach target size")
                # -- 1. demand growth --------------------------------------
                w_target = w0_total * math.exp(self.alpha * t)
                arrivals = int(round(w_target - float(omega[:num_nodes].sum())))
                if arrivals > 0:
                    self._assign_users(omega, num_nodes, arrivals, np_rng)
                # -- 2. supply growth --------------------------------------
                n_target = min(n, round(self.n0 * math.exp(self.beta * t)))
                if n_target > num_nodes:
                    self._spawn_nodes(
                        graph, omega, num_nodes, n_target - num_nodes, np_rng
                    )
                    for new_id in range(num_nodes, n_target):
                        if fractal is not None:
                            point = fractal.sample_point()
                            positions.append(point)
                            xs[new_id] = point.x
                            ys[new_id] = point.y
                    num_nodes = n_target
                # -- 3. churn ----------------------------------------------
                if self.churn > 0:
                    self._relocate_users(omega, num_nodes, np_rng)
                # -- 4. adaptation -----------------------------------------
                bandwidth_target = self.b0 * math.exp(self.delta_prime * t)
                self._adapt(
                    graph, omega, strength, num_nodes, bandwidth_target,
                    xs, ys, kappa, np_rng,
                )
                self._record(history, float(t), omega, num_nodes, graph)
                while pending_snapshots and num_nodes >= pending_snapshots[0]:
                    size = pending_snapshots.pop(0)
                    frozen = graph.copy()
                    frozen.name = f"{graph.name}@{num_nodes}"
                    snapshots[size] = frozen

        users = {i: int(round(omega[i])) for i in range(num_nodes)}
        position_map = {i: positions[i] for i in range(num_nodes)} if positions else {}
        return SerranoRun(
            graph=graph, users=users, positions=position_map, history=history,
            snapshots=snapshots,
        )

    # ------------------------------------------------------------- internals

    @staticmethod
    def _record(history, t: float, omega, num_nodes: int, graph: Graph) -> None:
        history["users"].record(t, float(omega[:num_nodes].sum()))
        history["nodes"].record(t, float(num_nodes))
        history["edges"].record(t, float(max(graph.num_edges, 1)))
        history["bandwidth"].record(t, float(max(graph.total_weight, 1.0)))

    @staticmethod
    def _assign_users(omega, num_nodes: int, count: int, np_rng) -> None:
        """Batch linear-preference arrival: multinomial over Π_i = ω_i/W."""
        weights = omega[:num_nodes]
        total = weights.sum()
        probs = weights / total
        omega[:num_nodes] += np_rng.multinomial(count, probs)

    def _spawn_node(self, graph: Graph, omega, new_id: int, np_rng) -> None:
        """Create one AS with ω₀ users withdrawn from existing ASes.

        Donor ASes are drawn *uniformly over nodes* (not over users): the
        model's drift has a constant loss term −βω₀ per node, which is the
        uniform-over-donors convention.  An AS is never drained below one
        user (the reflecting-boundary analogue)."""
        needed = self.omega0
        for _ in range(50):  # clamped redraw rounds
            eligible = np.nonzero(omega[:new_id] > 1.0)[0]
            if eligible.size == 0:
                raise GenerationError("user pool exhausted while seeding a new AS")
            capacity = omega[eligible] - 1.0
            if capacity.sum() < needed:
                raise GenerationError("user pool exhausted while seeding a new AS")
            draws = np.bincount(
                np_rng.integers(0, eligible.size, size=needed),
                minlength=eligible.size,
            ).astype(np.float64)
            taken = np.minimum(draws, capacity)
            omega[eligible] -= taken
            shortfall = needed - int(taken.sum())
            if shortfall <= 0:
                break
            needed = shortfall
        graph.add_node(new_id)
        omega[new_id] = self.omega0

    def _spawn_nodes(
        self, graph: Graph, omega, first_id: int, count: int, np_rng
    ) -> None:
        """Supply growth for one time step: *count* ASes from *first_id* on.

        :meth:`_spawn_node` seeds ASes one at a time, re-scanning the donor
        pool per spawn — O(n) numpy work per node, the dominant cost at
        full scale.  From 512 nodes on, all of a step's arrivals are seeded
        together and their combined ``count·ω₀`` users are withdrawn in one
        uniform draw per redraw round.  Donors are the pre-step nodes only:
        letting the batch's own spawns absorb part of the withdrawal
        systematically under-drains the founder nodes while the network is
        small, a bias that preferential arrivals then compound for the rest
        of the run.  Below 512 nodes, where a step's spawns are more than a
        few percent of the pool, ASes are therefore seeded one at a time.
        W is conserved either way; the KS equivalence suite bounds the
        residual within-step difference against the one-at-a-time oracle.
        """
        if first_id < 512:
            for new_id in range(first_id, first_id + count):
                self._spawn_node(graph, omega, new_id, np_rng)
            return
        last = first_id + count
        graph.add_nodes(range(first_id, last))
        omega[first_id:last] = self.omega0
        needed = count * self.omega0
        for _ in range(50):  # clamped redraw rounds
            eligible = np.nonzero(omega[:first_id] > 1.0)[0]
            if eligible.size == 0:
                raise GenerationError("user pool exhausted while seeding a new AS")
            capacity = omega[eligible] - 1.0
            if capacity.sum() < needed:
                raise GenerationError("user pool exhausted while seeding a new AS")
            draws = np.bincount(
                np_rng.integers(0, eligible.size, size=needed),
                minlength=eligible.size,
            ).astype(np.float64)
            taken = np.minimum(draws, capacity)
            omega[eligible] -= taken
            shortfall = needed - int(taken.sum())
            if shortfall <= 0:
                break
            needed = shortfall

    def _relocate_users(self, omega, num_nodes: int, np_rng) -> None:
        """Move churn·W users: uniform departure, preferential arrival."""
        count = int(self.churn * omega[:num_nodes].sum())
        if count <= 0:
            return
        weights = np.maximum(omega[:num_nodes] - 1.0, 0.0)
        total = weights.sum()
        if total <= 0:
            return
        count = min(count, int(total))
        out = np.minimum(np_rng.multinomial(count, weights / total), weights)
        omega[:num_nodes] -= out
        moved = int(out.sum())
        stay = omega[:num_nodes]
        omega[:num_nodes] += np_rng.multinomial(moved, stay / stay.sum())

    def _adapt(
        self,
        graph: Graph,
        omega,
        strength,
        num_nodes: int,
        bandwidth_target: float,
        xs,
        ys,
        kappa: float,
        np_rng,
    ) -> None:
        """One adaptation round: whole blocks of activity-weighted pairs.

        Each round snapshots the outstanding need, draws a block of pairs
        by ``searchsorted`` over its running sum, applies the distance
        acceptance ``exp(-d/d_c)`` with ``d_c = ω_i ω_j / (κ W)``
        vectorized, and realizes each accepted pair's reinforcement run as
        a single geometric draw — ``min(G, need_i, need_j)`` with
        ``G ~ Geometric(1-r)`` is exactly the distribution of one link plus
        a further unit with probability ``r`` while both sides still need
        bandwidth.  Pairs are drawn from the round's activity snapshot, not
        re-weighted after every link.  A light Python pass resolves
        intra-block conflicts (pairs whose endpoints an earlier pair already
        exhausted), and all units commit through one bulk
        :meth:`Graph.add_edges`.
        """
        w_total = float(omega[:num_nodes].sum())
        a_t = 2.0 * bandwidth_target / w_total
        desired = np.maximum(1.0 + a_t * (omega[:num_nodes] - self.omega0), 1.0)
        need = np.floor(desired - strength[:num_nodes] + 0.5)
        need = np.maximum(need, 0.0)
        active = np.nonzero(need)[0]
        if active.size < 2:
            return
        remaining = need[active].copy()
        use_distance = kappa > 0.0 and xs is not None
        pending: Dict[tuple, int] = {}
        rounds = 256
        dry_rounds = 0
        while rounds > 0 and dry_rounds < 3:
            rounds -= 1
            cum = np.cumsum(remaining)
            total = float(cum[-1])
            if total <= 0 or int(np.count_nonzero(remaining > 0)) < 2:
                break
            # A round's pair weights are a snapshot: too large a block lets
            # stale high-need endpoints soak up proposals after exhaustion,
            # concentrating reinforcement on fewer distinct pairs than a
            # per-draw re-weighted kernel.  ~total/8 keeps the staleness
            # negligible at a few extra (cheap) rounds.
            block = int(min(max(total / 8.0, 16.0), float(1 << 18)))
            pos_i = np.searchsorted(cum, np_rng.random(block) * total, side="right")
            pos_j = np.searchsorted(cum, np_rng.random(block) * total, side="right")
            mask = pos_i != pos_j
            if use_distance:
                node_i = active[pos_i]
                node_j = active[pos_j]
                d = np.hypot(xs[node_i] - xs[node_j], ys[node_i] - ys[node_j])
                d_c = omega[node_i] * omega[node_j] / (kappa * w_total)
                with np.errstate(divide="ignore"):
                    accept = np.exp(
                        np.maximum(-d / np.maximum(d_c, 1e-300), -745.0)
                    )
                mask &= np_rng.random(block) < accept
            units_proposed = (
                np_rng.geometric(1.0 - self.r, size=block)
                if self.r > 0
                else np.ones(block, dtype=np.int64)
            )
            progress = False
            for k in np.nonzero(mask)[0].tolist():
                a, b = int(pos_i[k]), int(pos_j[k])
                if remaining[a] <= 0 or remaining[b] <= 0:
                    continue  # an earlier pair in this block exhausted it
                units = int(min(units_proposed[k], remaining[a], remaining[b]))
                remaining[a] -= units
                remaining[b] -= units
                i, j = int(active[a]), int(active[b])
                strength[i] += units
                strength[j] += units
                key = (i, j) if i < j else (j, i)
                pending[key] = pending.get(key, 0) + units
                progress = True
            dry_rounds = 0 if progress else dry_rounds + 1
        if pending:
            graph.add_edges(
                (i, j, float(units)) for (i, j), units in pending.items()
            )
