"""(1+ε)α-orientations (Corollary 1.1).

A forest decomposition of diameter D converts into an orientation in
O(D) rounds: root every monochromatic tree and point every edge at its
parent.  Each vertex then has at most one out-edge (its parent edge)
per color, so the out-degree is bounded by the number of forests —
``(1+ε)α`` — which is how the paper derives the first orientation
algorithms with linear ``1/ε`` dependence.

Also provided: the (2+ε)α*-orientation baseline from the H-partition
(Theorem 2.1(2)) and the exact flow-based witness, so benches can
compare all three.

Both registry tasks run the same stage functions: ``decompose``
produces the substrate (forest decomposition, H-partition, or nothing
for the exact witness), ``orient`` converts it, and for pseudoforests
a ``fold`` stage groups the out-edges.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import DecompositionError
from ..graph.csr import rooted_forest_class_depths, snapshot_of
from ..graph.forests import color_classes
from ..graph.multigraph import MultiGraph
from ..local.rounds import RoundCounter, ensure_counter
from ..nashwilliams.pseudoarboricity import (
    exact_pseudoarboricity,
    orientation_exists,
    pseudoforest_decomposition_from_orientation,
)
from ..pipeline import PassStats, Scheduler
from ..rng import SeedLike
from ..decomposition.hpartition import (
    acyclic_orientation,
    default_threshold,
    h_partition,
)
from .algorithm_stats import TaskStats
from .forest_decomposition import forest_decomposition_algorithm2
from .results import OrientationResult, PseudoforestResult

Orientation = Dict[int, int]

ORIENTATION_METHODS = ("augmentation", "hpartition", "exact")


def orientation_from_forest_decomposition(
    graph: MultiGraph,
    coloring: Dict[int, int],
    rounds: Optional[RoundCounter] = None,
) -> Orientation:
    """Orient every edge toward its tree root (Corollary 1.1 step).

    Out-degree is bounded by the number of colors.  Charges O(D) rounds
    where D is the largest tree diameter (the paper's conversion cost).
    All color classes are rooted in one stacked kernel call.
    """
    counter = ensure_counter(rounds)
    snapshot = snapshot_of(graph)
    classes = list(color_classes(coloring).values())
    per_class, _waves = rooted_forest_class_depths(
        snapshot, [snapshot.edge_positions(eids) for eids in classes]
    )
    orientation: Orientation = {}
    worst_depth = 0
    for eids, (depth_u, depth_v, child_ids) in zip(classes, per_class):
        worst_depth = max(worst_depth, int(np.maximum(depth_u, depth_v).max()))
        # tail = child; edge points to parent
        orientation.update(zip(eids, child_ids.tolist()))
    counter.charge(2 * worst_depth + 1, "orient toward roots")
    return orientation


# ----------------------------------------------------------------------
# Corollary 1.1 as stage functions
# ----------------------------------------------------------------------


def _or_setup(record: PassStats, method: str) -> None:
    if method not in ORIENTATION_METHODS:
        raise DecompositionError(f"unknown orientation method {method!r}")


def _or_decompose(
    record: PassStats,
    graph: MultiGraph,
    epsilon: float,
    alpha: Optional[int],
    method: str,
    seed: SeedLike,
    counter: RoundCounter,
    pseudoarboricity: Optional[int],
):
    """The substrate the orient stage converts, and its out-degree
    bound: Algorithm 2 forests (augmentation), an H-partition
    (hpartition), or nothing (exact)."""
    if method == "augmentation":
        result = forest_decomposition_algorithm2(
            graph, epsilon, alpha=alpha, diameter_mode="auto", seed=seed,
            rounds=counter,
        )
        record.reconcile_volume = len(result.coloring)
        return result, result.colors_used
    if method == "hpartition":
        if pseudoarboricity is None:
            pseudoarboricity = exact_pseudoarboricity(graph)
        threshold = max(1, default_threshold(pseudoarboricity, epsilon))
        partition = h_partition(graph, threshold, counter)
        record.vertices_touched = graph.n
        return partition, threshold
    # "exact" needs no substrate — the orient stage computes the witness.
    return None, None


def _or_orient(
    record: PassStats,
    graph: MultiGraph,
    epsilon: float,
    alpha: Optional[int],
    method: str,
    substrate,
    bound: Optional[int],
    counter: RoundCounter,
) -> Tuple[Orientation, int]:
    if method == "augmentation":
        orientation = orientation_from_forest_decomposition(
            graph, substrate.coloring, counter,
        )
        record.items = substrate.colors_used
    elif method == "hpartition":
        orientation = acyclic_orientation(graph, substrate, counter)
    else:  # exact
        from ..nashwilliams.arboricity import exact_arboricity

        if alpha is None:
            alpha = exact_arboricity(graph)
        bound = max(1, math.ceil((1.0 + epsilon) * max(alpha, 1)))
        orientation = orientation_exists(graph, bound)
        if orientation is None:
            raise DecompositionError(
                f"no {bound}-orientation exists (alpha underestimated?)"
            )
        counter.charge(1, "exact orientation (centralized witness)")
    record.reconcile_volume = len(orientation)
    return orientation, bound


def _pf_fold(
    record: PassStats, graph: MultiGraph, orientation: Orientation,
) -> Dict[int, int]:
    """Group each vertex's out-edges into one pseudoforest per slot."""
    coloring = pseudoforest_decomposition_from_orientation(graph, orientation)
    record.reconcile_volume = len(coloring)
    return coloring


def _run_orientation_stages(
    graph: MultiGraph,
    epsilon: float,
    alpha: Optional[int],
    method: str,
    seed: SeedLike,
    rounds: Optional[RoundCounter],
    pseudoarboricity: Optional[int],
    fold: bool,
):
    """``setup``, ``decompose``, ``orient``, then ``finalize`` — with a
    ``fold`` stage before it for the pseudoforest companion."""
    counter = ensure_counter(rounds)
    scheduler = Scheduler(counter)
    stats = TaskStats()
    scheduler.stage("setup", _or_setup, method)
    substrate, bound = scheduler.stage(
        "decompose", _or_decompose, graph, epsilon, alpha, method, seed,
        counter, pseudoarboricity,
    )
    orientation, bound = scheduler.stage(
        "orient", _or_orient, graph, epsilon, alpha, method, substrate,
        bound, counter,
    )
    if fold:
        coloring = scheduler.stage("fold", _pf_fold, graph, orientation)
        result = scheduler.stage(
            "finalize",
            lambda _record: PseudoforestResult(
                coloring, bound, rounds=counter, stats=stats, graph=graph,
            ),
        )
    else:
        result = scheduler.stage(
            "finalize",
            lambda _record: OrientationResult(
                orientation, bound, rounds=counter, stats=stats,
                graph=graph,
            ),
        )
    stats.passes = scheduler.passes
    return result


def orientation_decomposition(
    graph: MultiGraph,
    epsilon: float,
    alpha: Optional[int] = None,
    method: str = "augmentation",
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
    pseudoarboricity: Optional[int] = None,
) -> OrientationResult:
    """Corollary 1.1 as a protocol result: returns the
    :class:`~repro.core.results.OrientationResult` (per-stage records in
    ``result.stats["passes"]``).

    ``method``:

    * ``"augmentation"`` — Corollary 1.1: Algorithm 2 forest
      decomposition (with bounded diameter), then orient to roots.
      Out-degree ≤ #forests ≈ (1+ε)α; rounds linear in 1/ε.
    * ``"hpartition"`` — the (2+ε)α* baseline of Theorem 2.1(2).
    * ``"exact"`` — centralized flow witness at ⌈(1+ε)α⌉ (ground truth).

    ``pseudoarboricity`` lets callers (e.g. a
    :class:`~repro.core.session.Session`) inject the memoized exact
    value for the ``"hpartition"`` method instead of recomputing it.
    :func:`repro.low_outdegree_orientation` unwraps this result into
    the historical ``(orientation, bound)`` tuple.
    """
    return _run_orientation_stages(
        graph, epsilon, alpha, method, seed, rounds, pseudoarboricity,
        fold=False,
    )


def pseudoforest_decomposition_result(
    graph: MultiGraph,
    epsilon: float,
    alpha: Optional[int] = None,
    method: str = "augmentation",
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
    pseudoarboricity: Optional[int] = None,
) -> PseudoforestResult:
    """The pseudoforest companion of Corollary 1.1: the orientation
    stages plus a ``fold``; returns the :class:`~repro.core.results.
    PseudoforestResult`."""
    return _run_orientation_stages(
        graph, epsilon, alpha, method, seed, rounds, pseudoarboricity,
        fold=True,
    )
