"""Graph substrate: multigraphs, the flat-array kernel, traversal,
forests, flow, matching, generators."""

from .multigraph import MultiGraph
from .csr import CSRGraph, PeelingView, rooted_forest_arrays, snapshot_of
from .union_find import RollbackUnionFind, UnionFind
from .traversal import (
    bfs_distances,
    connected_components,
    diameter_of_component,
    distance_between_sets,
    edge_neighborhood,
    edges_within,
    neighborhood,
    power_graph,
    shortest_path,
    weak_diameter,
)
from .forests import (
    RootedForest,
    color_classes,
    forest_components,
    is_forest,
    is_star_forest,
    max_forest_diameter,
)
from .flow import FlowNetwork
from .matching import greedy_matching, hopcroft_karp, maximum_matching_size

__all__ = [
    "MultiGraph",
    "CSRGraph",
    "PeelingView",
    "rooted_forest_arrays",
    "snapshot_of",
    "UnionFind",
    "RollbackUnionFind",
    "bfs_distances",
    "neighborhood",
    "edge_neighborhood",
    "edges_within",
    "power_graph",
    "connected_components",
    "shortest_path",
    "diameter_of_component",
    "weak_diameter",
    "distance_between_sets",
    "RootedForest",
    "is_forest",
    "is_star_forest",
    "forest_components",
    "color_classes",
    "max_forest_diameter",
    "FlowNetwork",
    "hopcroft_karp",
    "maximum_matching_size",
    "greedy_matching",
]
