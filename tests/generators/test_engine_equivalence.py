"""Engine-equivalence suite: growth kernels vs their reference oracles.

Every family has one production growth kernel, and
``golden_fingerprints.json`` pins each kernel's graphs.  Two contracts
tie the kernels to the reference loops in :mod:`.oracles`:

* **draw-order-preserving** generators (``engine_sensitive = False``)
  build exactly their oracle's graph; inet's and brite's kernels are
  checked against their oracles across a hypothesis seed sweep;
* **engine-sensitive** generators (``engine_sensitive = True``) sample
  their oracle's kernel from other draws, so they must produce
  *distributionally equivalent* graphs: identical node counts, mean
  degree within a few percent, and a small two-sample KS distance between
  degree distributions pooled across seeds.  The oracle takes the
  ``python`` slot, production the ``vector`` one.

Plus the cache identity: ``"engine": "vector"`` joins the keys of
engine-sensitive generators only.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.battery import plan_cells
from repro.core.cache import canonical_key
from repro.core.registry import make_generator
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
from repro.stats.distributions import ks_distance
from repro.store.checkpoint import _growth_identity

from .oracles import (
    FenwickBianconiBarabasiGenerator,
    FenwickGlpGenerator,
    FenwickPfpGenerator,
    FenwickSerranoGenerator,
    HeapInetGenerator,
    ScalarAlbertBarabasiGenerator,
    ScalarBarabasiAlbertGenerator,
    ScanBriteGenerator,
)

# ----------------------------------------------------------- cache identity

#: (model, n) → (spool generation key, checkpoint-identity key) at seed 5,
#: checkpoint_every 1000, recorded while ``engine="auto"`` still took the
#: python kernels below 6000 nodes.  The six engine-sensitive families now
#: always run the kernel that auto took at n=7000.
PARENT_KEYS = {
    ("barabasi-albert", 250): (
        "b5b37e86b4dea7093ba86fb87dbb94c038a953d4c3eb099b7ff0debbd03f35fa",
        "73ddcebc70a41fcda2ec6a067a4fde6d979dac35844b379dcf498a1883ea129b",
    ),
    ("barabasi-albert", 7000): (
        "fb386d588a5bc4989e184a13568ed36349c5d1cfd0cfccd3a2b8e265473305ab",
        "46d536d2d14ac39bbf131d899fc805d801dff365ab21b746f149ac82e8e04eca",
    ),
    ("serrano", 250): (
        "09997371805722c161a04bd99c9a608741bdef6330f4bf3d9c1dab162a3f6c86",
        "091cbd69d28f3710c1dca93720a4f9baec2954b8dd1704b99fd770307dce0eae",
    ),
    ("serrano", 7000): (
        "e2695cf0463c423cb845b7ecaaf4327e25bc9ddbd33c433185344c771e34968d",
        "8a955114c8aa7483bd52621fc66f463af2576771cb1201a2cfb1321aa04c1e4d",
    ),
    ("waxman", 250): (
        "1aa7a463cc1e55cd98d62a716cf380738e8659de1a4f0b28519f213fc7d00063",
        "a11effbd77443fd5d754d6697292801c439a8dd4bc872058523005f6657c4d57",
    ),
    ("waxman", 7000): (
        "3eb311cfa76a874f53813efcfeb445a3839bd0cd3931c68d9aa81cb9021989be",
        "36db901e61b09aa156a791761d93ba22185c0228ed85691f4d32abf77ca98ab0",
    ),
}


class TestCacheIdentity:
    @pytest.mark.parametrize("model, n", sorted(PARENT_KEYS))
    def test_keys_reuse_only_same_kernel_builds(self, model, n):
        generator = make_generator(model)
        gen_key = plan_cells(generator, n, 5, (), {}).gen_key
        identity = canonical_key(_growth_identity(generator, n, 5, 1000))
        parent_gen_key, parent_identity = PARENT_KEYS[model, n]
        if n >= 6000 or not generator.engine_sensitive:
            assert (gen_key, identity) == (parent_gen_key, parent_identity)
        else:
            # A python-kernel graph must never be attached or resumed as if
            # the vector kernel had built it.
            assert gen_key != parent_gen_key
            assert identity != parent_identity

    def test_engine_never_in_params(self):
        for generator in (WaxmanGenerator(), SerranoGenerator()):
            assert "engine" not in generator.params()

    def test_order_preserving_cache_params_engine_free(self):
        assert "engine" not in WaxmanGenerator().cache_params(500)

    def test_sensitive_cache_params_carry_resolved_engine(self):
        generator = SerranoGenerator()
        for n in (500, 7000):
            assert generator.cache_params(n)["engine"] == "vector"

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

GOLDEN_TABLE = json.loads(
    (Path(__file__).with_name("golden_fingerprints.json")).read_text()
)
GOLDEN = GOLDEN_TABLE["fingerprints"]

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


# ------------------------------------------------ engine-sensitive: KS bands

#: Per family: engine slot → class; the oracle fills the python slot.
ENGINE_SENSITIVE = {
    "barabasi-albert": {
        "python": ScalarBarabasiAlbertGenerator,
        "vector": BarabasiAlbertGenerator,
    },
    "albert-barabasi": {
        "python": ScalarAlbertBarabasiGenerator,
        "vector": AlbertBarabasiGenerator,
    },
    "bianconi-barabasi": {
        "python": FenwickBianconiBarabasiGenerator,
        "vector": BianconiBarabasiGenerator,
    },
    "glp": {"python": FenwickGlpGenerator, "vector": GlpGenerator},
    "pfp": {"python": FenwickPfpGenerator, "vector": PfpGenerator},
    "serrano": {"python": FenwickSerranoGenerator, "vector": SerranoGenerator},
}

#: The fingerprint tables also pin Serrano's distance variant.
PINNED = {
    **ENGINE_SENSITIVE,
    "serrano-distance": {
        "python": lambda: FenwickSerranoGenerator(distance=True),
        "vector": lambda: SerranoGenerator(distance=True),
    },
}


def _cells(table):
    return [
        (name, int(cell.split("/")[0]), int(cell.split("/")[1]), value)
        for name, cells in sorted(GOLDEN_TABLE[table].items())
        for cell, value in sorted(cells.items())
    ]


VECTOR_CELLS = _cells("engine_sensitive")
ORACLE_CELLS = _cells("oracles")


class TestEngineSensitiveFingerprints:
    """Production reproduces the graphs its vector kernels built while
    these families also had a python kernel, and each oracle reproduces
    that python kernel's graphs: the move of the python loops into
    :mod:`.oracles` perturbed neither side."""

    def test_tables_cover_every_engine_sensitive_family(self):
        assert set(GOLDEN_TABLE["engine_sensitive"]) == set(PINNED)
        assert set(GOLDEN_TABLE["oracles"]) == set(PINNED)
        assert len(VECTOR_CELLS) == 7 * 6
        assert all(slots["vector"]().engine_sensitive for slots in PINNED.values())

    @pytest.mark.parametrize(
        "name, n, seed, expected",
        VECTOR_CELLS,
        ids=[f"{name}-{n}-{seed}" for name, n, seed, _ in VECTOR_CELLS],
    )
    def test_production_reproduces_vector_golden(self, name, n, seed, expected):
        graph = PINNED[name]["vector"]().generate(n, seed=seed)
        assert graph.fingerprint() == expected

    @pytest.mark.parametrize(
        "name, n, seed, expected",
        ORACLE_CELLS,
        ids=[f"{name}-{n}-{seed}" for name, n, seed, _ in ORACLE_CELLS],
    )
    def test_oracle_reproduces_python_golden(self, name, n, seed, expected):
        graph = PINNED[name]["python"]().generate(n, seed=seed)
        assert graph.fingerprint() == expected

#: Pooled-degree KS ceiling.  Same-engine/different-seed runs of these
#: models sit around 0.01-0.03 at this size; 0.08 catches a real kernel
#: divergence while staying robust to seed noise.
KS_CEILING = 0.08

#: Relative mean-degree tolerance between engines (pooled across seeds).
MEAN_DEGREE_RTOL = 0.08


class TestDistributionalEquivalence:
    @pytest.mark.parametrize("name", sorted(ENGINE_SENSITIVE))
    def test_degree_distributions_match(self, name):
        make = lambda engine: ENGINE_SENSITIVE[name][engine]()
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
        python_run = FenwickSerranoGenerator().generate_detailed(900, seed=5)
        vector_run = SerranoGenerator().generate_detailed(900, seed=5)
        assert python_run.total_users == vector_run.total_users
        assert vector_run.graph.total_weight == pytest.approx(
            python_run.graph.total_weight, rel=0.05
        )

    def test_bb_custom_fitness_callable_still_works(self):
        # Single-valued fitness reduces BB to BA on either engine.
        make = lambda e: ENGINE_SENSITIVE["bianconi-barabasi"][e](
            m=2, fitness=lambda rng: 1.0
        )
        python_graph = make("python").generate(600, seed=3)
        vector_graph = make("vector").generate(600, seed=3)
        assert python_graph.num_edges == vector_graph.num_edges
        degrees = lambda g: sorted(g.degree(u) for u in g.nodes())
        assert (
            ks_distance(degrees(python_graph), degrees(vector_graph))
            < KS_CEILING
        )
