"""Graph engine and the metric battery's algorithms.

Everything is implemented from scratch on :class:`repro.graph.Graph`;
networkx appears only in the optional :mod:`repro.graph.convert` bridge.
"""

from .betweenness import approximate_betweenness, betweenness_centrality
from .clustering import (
    average_clustering,
    clustering_by_degree,
    clustering_spectrum,
    local_clustering,
    total_triangles,
    transitivity,
    triangles_per_node,
)
from .cores import CoreProfile, core_numbers, core_profile, degeneracy, k_core
from .closeness import approximate_closeness, closeness_centrality
from .communities import (
    label_propagation_communities,
    modularity,
    partition_from_labels,
)
from .cuts import articulation_points, bridges, two_edge_connected_core
from .correlations import (
    average_neighbor_degree,
    degree_assortativity,
    knn_by_degree,
    knn_spectrum,
    normalized_knn_spectrum,
)
from .csr import CSRView
from .cycles import adjacency_matrix, count_cycles, cycle_counts_3_4_5
from .graph import Graph
from .io import (
    edge_list_lines,
    parse_edge_list_lines,
    read_edge_list,
    read_json,
    write_edge_list,
    write_json,
)
from .richclub import normalized_rich_club, rich_club_coefficient, rich_club_spectrum
from .similarity import (
    clustering_spectrum_distance,
    core_profile_distance,
    degree_distribution_distance,
    path_length_distance,
    similarity_report,
)
from .spectral import (
    algebraic_connectivity,
    epidemic_threshold,
    laplacian_matrix,
    normalized_spectral_gap,
    spectral_radius,
)
from .shortest_paths import (
    PathLengthStats,
    average_path_length,
    diameter,
    eccentricities,
    path_length_distribution,
)
from .weighted_metrics import (
    average_weighted_clustering,
    disparity,
    disparity_spectrum,
    weighted_average_neighbor_degree,
    weighted_clustering,
)
from .traversal import (
    bfs_distances,
    bfs_tree,
    connected_components,
    giant_component,
    is_connected,
)

__all__ = [
    "Graph",
    "CSRView",
    "bfs_distances",
    "bfs_tree",
    "connected_components",
    "is_connected",
    "giant_component",
    "PathLengthStats",
    "path_length_distribution",
    "average_path_length",
    "eccentricities",
    "diameter",
    "triangles_per_node",
    "total_triangles",
    "local_clustering",
    "average_clustering",
    "transitivity",
    "clustering_spectrum",
    "clustering_by_degree",
    "average_neighbor_degree",
    "knn_by_degree",
    "knn_spectrum",
    "normalized_knn_spectrum",
    "degree_assortativity",
    "core_numbers",
    "k_core",
    "CoreProfile",
    "core_profile",
    "degeneracy",
    "betweenness_centrality",
    "approximate_betweenness",
    "closeness_centrality",
    "approximate_closeness",
    "label_propagation_communities",
    "modularity",
    "partition_from_labels",
    "rich_club_coefficient",
    "normalized_rich_club",
    "rich_club_spectrum",
    "count_cycles",
    "cycle_counts_3_4_5",
    "adjacency_matrix",
    "spectral_radius",
    "algebraic_connectivity",
    "laplacian_matrix",
    "normalized_spectral_gap",
    "epidemic_threshold",
    "degree_distribution_distance",
    "clustering_spectrum_distance",
    "path_length_distance",
    "core_profile_distance",
    "similarity_report",
    "bridges",
    "articulation_points",
    "two_edge_connected_core",
    "weighted_clustering",
    "average_weighted_clustering",
    "weighted_average_neighbor_degree",
    "disparity",
    "disparity_spectrum",
    "write_edge_list",
    "read_edge_list",
    "write_json",
    "read_json",
    "edge_list_lines",
    "parse_edge_list_lines",
]
