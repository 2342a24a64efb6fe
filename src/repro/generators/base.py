"""Generator framework.

Every topology model in the suite subclasses :class:`TopologyGenerator`:
parameters are fixed at construction, and :meth:`generate` produces a
:class:`repro.graph.Graph` of the requested size from a seed.  The split
matters for the harnesses — one configured generator is swept across sizes
and seeds without re-validating parameters each time.

Subclasses register themselves with a class-level ``name`` so the registry
(:mod:`repro.core.registry`) and CLI can instantiate them by string.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional

from ..graph.graph import Graph
from ..obs.metrics import get_registry
from ..obs.tracer import get_tracer
from ..stats.rng import SeedLike
from .engine import (
    AUTO_VECTOR_THRESHOLD,
    ENGINES,
    REPRO_ENGINE_ENV,
    resolve_engine,
)

__all__ = [
    "TopologyGenerator",
    "GenerationError",
    "ENGINES",
    "AUTO_VECTOR_THRESHOLD",
    "REPRO_ENGINE_ENV",
    "resolve_engine",
]


class GenerationError(RuntimeError):
    """A generator could not produce a valid topology with its parameters
    (e.g. a degree sequence with an odd sum, or a size below the seed
    clique)."""


class TopologyGenerator(abc.ABC):
    """Abstract base for all topology generators.

    Subclasses must set the class attribute ``name`` (unique, kebab-case)
    and implement :meth:`generate`.  ``params()`` reports the configured
    parameters for experiment provenance.
    """

    #: Unique registry name, e.g. ``"barabasi-albert"``.
    name: str = ""

    #: True when the vector engine cannot replay the python engine's draw
    #: order (it aggregates draws), so the two engines produce different —
    #: distributionally equivalent — graphs for the same seed.  The
    #: resolved engine then joins the generator's battery cache identity
    #: (see :meth:`cache_params`).  Draw-order-preserving generators have
    #: a single growth kernel, so the engine selects nothing and stays
    #: out of the key.
    engine_sensitive: bool = False

    @property
    def engine(self) -> str:
        """Growth-kernel engine: ``auto`` | ``python`` | ``vector``.

        Stored outside :meth:`params` (an underscore attribute behind this
        property), so selecting an engine never perturbs provenance or the
        cache/seed identity of draw-order-preserving generators.
        """
        return getattr(self, "_engine", "auto")

    @engine.setter
    def engine(self, value: str) -> None:
        if value not in ENGINES:
            choices = ", ".join(ENGINES)
            raise ValueError(f"unknown engine {value!r}; choose one of: {choices}")
        self._engine = value

    def resolve_engine(self, n: int) -> str:
        """The engine a generate(*n*) call will run on (``python``/``vector``)."""
        return resolve_engine(self.engine, n)

    def cache_params(self, n: int) -> Dict[str, Any]:
        """Parameters that identify a generate(*n*) output for caching.

        Equal to :meth:`params` for draw-order-preserving generators; for
        ``engine_sensitive`` ones the resolved engine is added, so battery
        cells computed by different engines occupy different cache cells.
        """
        params = self.params()
        if self.engine_sensitive:
            params["engine"] = self.resolve_engine(n)
        return params

    @abc.abstractmethod
    def generate(self, n: int, seed: SeedLike = None) -> Graph:
        """Build a topology with (approximately) *n* nodes.

        Growth models hit *n* exactly; structural models may deviate by a
        few nodes after cleanup (multi-edge collapse, component extraction)
        and say so in their docstring.
        """

    def generate_to_store(
        self,
        n: int,
        path,
        seed: SeedLike = None,
        checkpoint_every: Optional[int] = None,
        snapshot: bool = True,
    ):
        """Grow into a disk-backed store with checkpointed ingestion.

        Delegates to :func:`repro.store.checkpoint.grow_to_store`: the
        store at *path* is flushed every ``checkpoint_every`` nodes (the
        store's default when None), an interrupted run resumes from the
        last committed chunk, and a complete store is reused without
        regenerating.  Returns the :class:`~repro.store.checkpoint.
        GrowthReport`.
        """
        from ..store.checkpoint import DEFAULT_CHECKPOINT_EVERY, grow_to_store

        if checkpoint_every is None:
            checkpoint_every = DEFAULT_CHECKPOINT_EVERY
        return grow_to_store(
            self,
            n,
            path,
            seed=seed,
            checkpoint_every=checkpoint_every,
            snapshot=snapshot,
        )

    def trace_phase(self, phase: str, **attrs: Any):
        """A span context for one generation phase (seed, growth, rewire …).

        Emits ``generator.<phase>`` into the ambient tracer with the model
        name attached; a shared no-op when tracing is disabled, so growth
        loops can bracket their phases unconditionally.  Use at *phase*
        granularity (a handful of spans per generate call), never once per
        growth step.
        """
        return get_tracer().span(
            f"generator.{phase}",
            model=self.name or type(self).__name__,
            **attrs,
        )

    def count_steps(self, steps: int) -> None:
        """Report *steps* growth-loop iterations to the ambient metrics
        registry (``generator.steps``).  Called once per generate with the
        batch total — one counter bump, not one per step."""
        if steps:
            get_registry().counter("generator.steps").inc(steps)

    def params(self) -> Dict[str, Any]:
        """Configured parameters (public attributes), for provenance."""
        return {
            key: value
            for key, value in vars(self).items()
            if not key.startswith("_")
        }

    def describe(self) -> str:
        """Human-readable one-liner: name plus parameters."""
        rendered = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params().items()))
        return f"{self.name}({rendered})"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


def _validate_size(n: int, minimum: int = 1) -> None:
    """Shared size check for generate() implementations."""
    if n < minimum:
        raise GenerationError(f"n must be >= {minimum}, got {n}")
