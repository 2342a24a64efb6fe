"""Engine-equivalence suite: growth kernels vs their references.

Two contracts, per :mod:`repro.generators.engine`:

* **draw-order-preserving** generators (``engine_sensitive = False``)
  have one growth kernel.  Their graphs are pinned by golden
  fingerprints (``golden_fingerprints.json``) recorded while each family
  still had a python and a vector kernel that agreed; inet's and brite's
  kernels are also checked against the reference loops in
  :mod:`.oracles` across a hypothesis seed sweep;
* **engine-sensitive** generators (``engine_sensitive = True``) must
  produce *distributionally equivalent* graphs: identical node counts,
  mean degree within a few percent, and a small two-sample KS distance
  between degree distributions pooled across seeds.

Plus the selection machinery itself: explicit > environment > size
threshold, validated everywhere, and the resolved engine joining the
battery cache identity for engine-sensitive generators only.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import (
    AlbertBarabasiGenerator,
    BarabasiAlbertGenerator,
    BianconiBarabasiGenerator,
    BriteGenerator,
    GlpGenerator,
    InetGenerator,
    PfpGenerator,
    PlrgGenerator,
    SerranoGenerator,
    TransitStubGenerator,
    WaxmanGenerator,
)
from repro.generators import engine as engine_mod
from repro.generators.engine import AUTO_VECTOR_THRESHOLD, resolve_engine
from repro.stats.distributions import ks_distance

from .oracles import HeapInetGenerator, ScanBriteGenerator

# ---------------------------------------------------------------- selection


class TestResolveEngine:
    def test_explicit_choices_pass_through(self):
        assert resolve_engine("python", 10**9) == "python"
        assert resolve_engine("vector", 1) == "vector"

    def test_auto_uses_size_threshold(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine("auto", AUTO_VECTOR_THRESHOLD - 1) == "python"
        assert resolve_engine("auto", AUTO_VECTOR_THRESHOLD) == "vector"

    def test_env_overrides_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "vector")
        assert resolve_engine("auto", 1) == "vector"
        monkeypatch.setenv("REPRO_ENGINE", "python")
        assert resolve_engine("auto", 10**9) == "python"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "vector")
        assert resolve_engine("python", 10**9) == "python"

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("fortran", 100)

    def test_invalid_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "fortran")
        with pytest.raises(ValueError, match="REPRO_ENGINE"):
            resolve_engine("auto", 100)

    def test_generator_setter_validates(self):
        generator = WaxmanGenerator()
        with pytest.raises(ValueError, match="unknown engine"):
            generator.engine = "fortran"

    @given(
        size=st.integers(min_value=1, max_value=3 * AUTO_VECTOR_THRESHOLD),
        choice=st.sampled_from(["auto", "python", "vector"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_resolution_is_total_and_consistent(self, size, choice):
        # Manual env scrub (not monkeypatch): hypothesis runs many examples
        # per test call, which function-scoped fixtures can't wrap.
        import os

        saved_env = os.environ.pop("REPRO_ENGINE", None)
        try:
            resolved = resolve_engine(choice, size)
            assert resolved in ("python", "vector")
            if choice != "auto":
                assert resolved == choice
            else:
                assert resolved == (
                    "vector" if size >= AUTO_VECTOR_THRESHOLD else "python"
                )
        finally:
            if saved_env is not None:
                os.environ["REPRO_ENGINE"] = saved_env


class TestCacheIdentity:
    def test_engine_never_in_params(self):
        waxman = WaxmanGenerator()
        waxman.engine = "vector"
        for generator in (waxman, SerranoGenerator()):
            assert "engine" not in generator.params()

    def test_order_preserving_cache_params_engine_free(self):
        generator = WaxmanGenerator()
        generator.engine = "vector"
        assert "engine" not in generator.cache_params(500)

    def test_sensitive_cache_params_carry_resolved_engine(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        generator = SerranoGenerator(engine="vector")
        assert generator.cache_params(500)["engine"] == "vector"
        generator.engine = "auto"
        assert generator.cache_params(500)["engine"] == "python"
        assert (
            generator.cache_params(AUTO_VECTOR_THRESHOLD)["engine"] == "vector"
        )

    def test_classification(self):
        sensitive = (
            SerranoGenerator, BarabasiAlbertGenerator, AlbertBarabasiGenerator,
            BianconiBarabasiGenerator, GlpGenerator, PfpGenerator,
        )
        preserving = (
            WaxmanGenerator, PlrgGenerator, TransitStubGenerator,
            InetGenerator, BriteGenerator,
        )
        assert all(cls.engine_sensitive for cls in sensitive)
        assert not any(cls.engine_sensitive for cls in preserving)


# ------------------------------------------- draw-order-preserving: identity

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_fingerprints.json")).read_text()
)["fingerprints"]

ORDER_PRESERVING = {
    "brite": BriteGenerator,
    "brite-geometry": lambda: BriteGenerator(geometry=True),
    "inet": InetGenerator,
    "plrg": PlrgGenerator,
    "transit-stub": TransitStubGenerator,
    "waxman": WaxmanGenerator,
}

GOLDEN_CELLS = [
    (name, int(cell.split("/")[0]), int(cell.split("/")[1]), value)
    for name, cells in sorted(GOLDEN.items())
    for cell, value in sorted(cells.items())
]

#: Production kernel vs its reference oracle (see :mod:`.oracles`).
ORACLES = {
    "inet": (InetGenerator, HeapInetGenerator),
    "brite": (BriteGenerator, ScanBriteGenerator),
}


class TestGoldenFingerprints:
    def test_table_covers_every_order_preserving_family(self):
        assert set(GOLDEN) == set(ORDER_PRESERVING)
        assert len(GOLDEN_CELLS) == 5 * 6 + 2

    @pytest.mark.parametrize(
        "name, n, seed, expected",
        GOLDEN_CELLS,
        ids=[f"{name}-{n}-{seed}" for name, n, seed, _ in GOLDEN_CELLS],
    )
    def test_surviving_kernel_reproduces_golden(self, name, n, seed, expected):
        graph = ORDER_PRESERVING[name]().generate(n, seed=seed)
        assert graph.fingerprint() == expected


class TestFingerprintIdentity:
    @pytest.mark.parametrize("name", sorted(ORACLES))
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n", [160, 700])
    def test_same_graph_from_both_engines(self, name, seed, n):
        production, oracle = ORACLES[name]
        production_graph = production().generate(n, seed=seed)
        oracle_graph = oracle().generate(n, seed=seed)
        assert production_graph.fingerprint() == oracle_graph.fingerprint()

    def test_brite_geometric_variant_identical(self):
        for seed in (1, 2):
            production_graph = BriteGenerator(geometry=True).generate(
                400, seed=seed
            )
            oracle_graph = ScanBriteGenerator(geometry=True).generate(
                400, seed=seed
            )
            assert production_graph.fingerprint() == oracle_graph.fingerprint()

    @pytest.mark.parametrize("name", sorted(ORACLES))
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=40, max_value=260),
    )
    @settings(max_examples=12, deadline=None)
    def test_oracle_identity_is_seed_universal(self, name, seed, n):
        production, oracle = ORACLES[name]
        production_graph = production().generate(n, seed=seed)
        oracle_graph = oracle().generate(n, seed=seed)
        assert production_graph.fingerprint() == oracle_graph.fingerprint()
        assert list(production_graph.weighted_edges()) == list(
            oracle_graph.weighted_edges()
        )


class TestAutoThresholdStraddle:
    """engine="auto" must swap kernels exactly at the threshold, and build
    exactly the graph of the engine it resolves to."""

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        offset=st.integers(min_value=-3, max_value=3),
    )
    @settings(max_examples=10, deadline=None)
    def test_fingerprints_stable_across_threshold(self, seed, offset):
        # Manual patching: hypothesis generates many inputs per test call,
        # which pytest's function-scoped monkeypatch fixture can't wrap.
        import os

        threshold = 150
        saved_threshold = engine_mod.AUTO_VECTOR_THRESHOLD
        saved_env = os.environ.pop("REPRO_ENGINE", None)
        engine_mod.AUTO_VECTOR_THRESHOLD = threshold
        try:
            n = threshold + offset
            generator = BarabasiAlbertGenerator(m=2)  # engine defaults to auto
            expected = "vector" if n >= threshold else "python"
            assert generator.resolve_engine(n) == expected
            auto_graph = generator.generate(n, seed=seed)
            pinned = BarabasiAlbertGenerator(m=2, engine=expected).generate(
                n, seed=seed
            )
            assert auto_graph.fingerprint() == pinned.fingerprint()
        finally:
            engine_mod.AUTO_VECTOR_THRESHOLD = saved_threshold
            if saved_env is not None:
                os.environ["REPRO_ENGINE"] = saved_env


# ------------------------------------------------ engine-sensitive: KS bands

ENGINE_SENSITIVE = {
    "barabasi-albert": lambda e: BarabasiAlbertGenerator(m=2, engine=e),
    "albert-barabasi": lambda e: AlbertBarabasiGenerator(engine=e),
    "bianconi-barabasi": lambda e: BianconiBarabasiGenerator(m=2, engine=e),
    "glp": lambda e: GlpGenerator(engine=e),
    "pfp": lambda e: PfpGenerator(engine=e),
    "serrano": lambda e: SerranoGenerator(engine=e),
}

#: Pooled-degree KS ceiling.  Same-engine/different-seed runs of these
#: models sit around 0.01-0.03 at this size; 0.08 catches a real kernel
#: divergence while staying robust to seed noise.
KS_CEILING = 0.08

#: Relative mean-degree tolerance between engines (pooled across seeds).
MEAN_DEGREE_RTOL = 0.08


class TestDistributionalEquivalence:
    @pytest.mark.parametrize("name", sorted(ENGINE_SENSITIVE))
    def test_degree_distributions_match(self, name):
        make = ENGINE_SENSITIVE[name]
        n, seeds = 1500, (11, 23, 47)
        python_degrees = []
        vector_degrees = []
        python_edges = vector_edges = 0
        for seed in seeds:
            python_graph = make("python").generate(n, seed=seed)
            vector_graph = make("vector").generate(n, seed=seed)
            assert python_graph.num_nodes == n
            assert vector_graph.num_nodes == n
            python_degrees.extend(
                python_graph.degree(u) for u in python_graph.nodes()
            )
            vector_degrees.extend(
                vector_graph.degree(u) for u in vector_graph.nodes()
            )
            python_edges += python_graph.num_edges
            vector_edges += vector_graph.num_edges
        assert ks_distance(python_degrees, vector_degrees) < KS_CEILING
        assert vector_edges == pytest.approx(
            python_edges, rel=MEAN_DEGREE_RTOL
        )

    def test_serrano_conserves_users_and_weight(self):
        python_run = SerranoGenerator(engine="python").generate_detailed(
            900, seed=5
        )
        vector_run = SerranoGenerator(engine="vector").generate_detailed(
            900, seed=5
        )
        assert python_run.total_users == vector_run.total_users
        assert vector_run.graph.total_weight == pytest.approx(
            python_run.graph.total_weight, rel=0.05
        )

    def test_bb_custom_fitness_callable_still_works(self):
        # Single-valued fitness reduces BB to BA on either engine.
        make = lambda e: BianconiBarabasiGenerator(
            m=2, fitness=lambda rng: 1.0, engine=e
        )
        python_graph = make("python").generate(600, seed=3)
        vector_graph = make("vector").generate(600, seed=3)
        assert python_graph.num_edges == vector_graph.num_edges
        degrees = lambda g: sorted(g.degree(u) for u in g.nodes())
        assert (
            ks_distance(degrees(python_graph), degrees(vector_graph))
            < KS_CEILING
        )


# --------------------------------------------------------------- smoke: env


class TestEnvSelection:
    def test_env_flips_a_default_generator(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "vector")
        generator = BarabasiAlbertGenerator(m=2)
        assert generator.resolve_engine(50) == "vector"
        graph = generator.generate(80, seed=1)
        monkeypatch.setenv("REPRO_ENGINE", "python")
        reference = BarabasiAlbertGenerator(m=2, engine="vector").generate(
            80, seed=1
        )
        assert graph.fingerprint() == reference.fingerprint()
