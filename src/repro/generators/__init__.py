"""The topology generator suite — every model family the internet-modeling
literature compares, behind one :class:`TopologyGenerator` interface."""

from .albert_barabasi import AlbertBarabasiGenerator
from .barabasi_albert import BarabasiAlbertGenerator
from .base import GenerationError, TopologyGenerator
from .bianconi_barabasi import BianconiBarabasiGenerator
from .brite import BriteGenerator
from .dk import Dk2Generator, dk2_rewired, joint_degree_matrix
from .erdos_renyi import ErdosRenyiGnm, ErdosRenyiGnp
from .glp import GlpGenerator
from .gtitm import TransitStubGenerator
from .hierarchical import TwoLevelGenerator
from .hot import HotGenerator
from .inet import InetGenerator
from .pfp import PfpGenerator
from .plrg import PlrgGenerator, configuration_model
from .random_reference import RandomReferenceGenerator, rewired_reference
from .serrano import SerranoGenerator, SerranoRun
from .watts_strogatz import WattsStrogatzGenerator
from .waxman import WaxmanGenerator

__all__ = [
    "TopologyGenerator",
    "GenerationError",
    "ErdosRenyiGnp",
    "ErdosRenyiGnm",
    "WaxmanGenerator",
    "BarabasiAlbertGenerator",
    "AlbertBarabasiGenerator",
    "GlpGenerator",
    "PlrgGenerator",
    "configuration_model",
    "InetGenerator",
    "PfpGenerator",
    "HotGenerator",
    "TransitStubGenerator",
    "SerranoGenerator",
    "SerranoRun",
    "RandomReferenceGenerator",
    "rewired_reference",
    "WattsStrogatzGenerator",
    "BianconiBarabasiGenerator",
    "BriteGenerator",
    "Dk2Generator",
    "dk2_rewired",
    "joint_degree_matrix",
    "TwoLevelGenerator",
]
