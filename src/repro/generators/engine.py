"""Engine selection for the generator layer.

Mirrors the metric kernels' ``backend=`` contract (:mod:`repro.graph.csr`)
one layer up: every engine-sensitive generator takes an ``engine``
argument —

* ``"python"`` — the original scalar growth loop, the reference
  implementation whose draw sequence is the seed contract;
* ``"vector"`` — batch growth kernels: attachment targets drawn in blocks
  from precomputed kernel arrays (cumulative-weight ``searchsorted``,
  endpoint pools, rejection sampling), and edges committed through
  :meth:`repro.graph.graph.Graph.add_edges` bulk inserts;
* ``"auto"`` — consult the ``REPRO_ENGINE`` environment variable, then
  pick ``vector`` at or above :data:`AUTO_VECTOR_THRESHOLD` nodes (batch
  setup costs more than it saves on small graphs).

Only generators whose two kernels build *different* graphs keep both
(``engine_sensitive = True`` — Serrano's batched pair matching, the
preference models' batch rejection sampling): their graphs are
*distributionally equivalent*, gated by KS/band tests, and the resolved
engine joins their battery cache key so cells computed by different
engines never collide.  Draw-order-preserving generators
(``engine_sensitive = False`` — waxman, plrg, transit-stub, inet, brite)
have one growth kernel each: a second kernel replaying the same draws
could only build the same graph.  Every generator still exposes
``engine`` and ``resolve_engine(n)``; on these five the resolved engine
selects nothing, and golden fingerprint tests pin their graphs.
"""

from __future__ import annotations

import os

__all__ = [
    "ENGINES",
    "AUTO_VECTOR_THRESHOLD",
    "REPRO_ENGINE_ENV",
    "resolve_engine",
]

#: Accepted values for every generator's ``engine`` parameter.
ENGINES = ("auto", "python", "vector")

#: ``engine="auto"`` picks the vector path at or above this many nodes.
#: Chosen above every size the tier-1 suite generates (≤ 5 000), so the
#: default test surface keeps exercising the reference loops, while
#: full-scale runs (the 11 000-node 2001 AS map) flip to the fast path.
AUTO_VECTOR_THRESHOLD = 6000

#: Environment variable consulted by ``engine="auto"`` (values: ``python``,
#: ``vector``, or ``auto``); explicit engine arguments always override it.
REPRO_ENGINE_ENV = "REPRO_ENGINE"


def resolve_engine(engine: str = "auto", size: int = 0) -> str:
    """Resolve an ``engine`` argument to ``"python"`` or ``"vector"``.

    Explicit choices pass through (after validation).  ``"auto"`` defers
    first to the ``REPRO_ENGINE`` environment variable — which lets CI
    force the fast path across an unmodified test suite — and then to the
    size threshold: vector at or above :data:`AUTO_VECTOR_THRESHOLD`.
    """
    if engine not in ENGINES:
        choices = ", ".join(ENGINES)
        raise ValueError(f"unknown engine {engine!r}; choose one of: {choices}")
    if engine != "auto":
        return engine
    env = os.environ.get(REPRO_ENGINE_ENV, "").strip().lower()
    if env in ("python", "vector"):
        return env
    if env not in ("", "auto"):
        choices = ", ".join(ENGINES)
        raise ValueError(
            f"invalid {REPRO_ENGINE_ENV}={env!r}; choose one of: {choices}"
        )
    return "vector" if size >= AUTO_VECTOR_THRESHOLD else "python"
