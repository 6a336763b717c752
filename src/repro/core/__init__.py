"""Core: the paper's primary contribution (Sections 3, 4, 5), plus the
unified decomposition API (config / result protocol / registry /
session)."""

from . import api
from .api import describe
from .algorithm_stats import ListForestStats, StarForestStats, TaskStats
from .config import DecompositionConfig
from .registry import (
    TaskSpec,
    available_tasks,
    register_task,
)
from .results import (
    DecompositionResult,
    OrientationResult,
    PseudoforestResult,
)
from .session import Session, decompose
from .augmenting import (
    AugmentationStats,
    apply_augmentation,
    augment_edge,
    find_almost_augmenting_sequence,
    is_augmenting_sequence,
    shortcut_sequence,
)
from .color_splitting import (
    VertexColorSplitting,
    cluster_correlated_splitting,
    combine_colorings,
    independent_splitting,
)
from .cut import CutController, CutStats, is_cut_good
from .diameter_reduction import (
    DiameterReductionResult,
    depth_cut,
    random_sparse_cut,
    reduce_diameter,
)
from .forest_decomposition import (
    Algorithm2Result,
    Algorithm2Stats,
    ForestDecompositionResult,
    algorithm2,
    default_radii,
    forest_decomposition_algorithm2,
)
from .list_forest import ListForestDecompositionResult, list_forest_decomposition
from .api import low_outdegree_orientation
from .orientation import (
    orientation_decomposition,
    orientation_from_forest_decomposition,
    pseudoforest_decomposition_result,
)
from .partial_coloring import PartialListForestDecomposition
from .star_forest import (
    StarForestResult,
    list_star_forest_decomposition_amr,
    star_forest_decomposition_amr,
    two_coloring_star_forests,
)

__all__ = [
    "api",
    "decompose",
    "Session",
    "DecompositionConfig",
    "DecompositionResult",
    "OrientationResult",
    "PseudoforestResult",
    "TaskSpec",
    "register_task",
    "available_tasks",
    "PartialListForestDecomposition",
    "AugmentationStats",
    "find_almost_augmenting_sequence",
    "shortcut_sequence",
    "is_augmenting_sequence",
    "apply_augmentation",
    "augment_edge",
    "CutController",
    "CutStats",
    "is_cut_good",
    "DiameterReductionResult",
    "depth_cut",
    "random_sparse_cut",
    "reduce_diameter",
    "Algorithm2Result",
    "Algorithm2Stats",
    "algorithm2",
    "default_radii",
    "ForestDecompositionResult",
    "forest_decomposition_algorithm2",
    "ListForestDecompositionResult",
    "list_forest_decomposition",
    "VertexColorSplitting",
    "cluster_correlated_splitting",
    "independent_splitting",
    "combine_colorings",
    "StarForestResult",
    "star_forest_decomposition_amr",
    "list_star_forest_decomposition_amr",
    "two_coloring_star_forests",
    "low_outdegree_orientation",
    "orientation_decomposition",
    "orientation_from_forest_decomposition",
    "pseudoforest_decomposition_result",
    "describe",
    "TaskStats",
    "ListForestStats",
    "StarForestStats",
]
