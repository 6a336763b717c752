"""Distributed building blocks: H-partition, Cole-Vishkin, network
decomposition, and the (4+ε)α*-LSFD of Theorem 2.3."""

from .cole_vishkin import three_color_rooted_forest
from .degeneracy import (
    degeneracy_ordering,
    degeneracy_orientation,
    theorem22_lsfd,
)
from .hpartition import (
    HPartition,
    acyclic_orientation,
    default_threshold,
    h_partition,
    list_forest_decomposition_via_hpartition,
    out_edges_by_vertex,
    rooted_forests_from_orientation,
    star_forest_decomposition_via_hpartition,
)
from .lsfd import (
    list_star_forest_decomposition,
    lsfd_palette_requirement,
    validate_star_invariant,
)
from .network_decomposition import (
    NetworkDecomposition,
    cut_edges_of_clustering,
    network_decomposition,
    partial_network_decomposition,
    validate_network_decomposition,
)

__all__ = [
    "three_color_rooted_forest",
    "degeneracy_ordering",
    "degeneracy_orientation",
    "theorem22_lsfd",
    "HPartition",
    "h_partition",
    "default_threshold",
    "acyclic_orientation",
    "out_edges_by_vertex",
    "rooted_forests_from_orientation",
    "star_forest_decomposition_via_hpartition",
    "list_forest_decomposition_via_hpartition",
    "list_star_forest_decomposition",
    "lsfd_palette_requirement",
    "validate_star_invariant",
    "NetworkDecomposition",
    "network_decomposition",
    "partial_network_decomposition",
    "validate_network_decomposition",
    "cut_edges_of_clustering",
]
