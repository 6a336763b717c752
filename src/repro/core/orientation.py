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

Both registry tasks run as declared pass lists
(:data:`ORIENTATION_PIPELINE`, :data:`PSEUDOFOREST_PIPELINE`): a
``decompose`` pass producing the substrate (forest decomposition,
H-partition, or nothing for the exact witness), an ``orient`` pass
converting it, and for pseudoforests a ``fold`` pass grouping the
out-edges.  The augmentation orient step fans the per-color tree
rootings out through ``ctx.fan_out`` — rooting consumes no randomness,
so the reconciled orientation does not depend on execution order.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from ..errors import DecompositionError
from ..graph.csr import rooted_forest_arrays, snapshot_of
from ..graph.forests import color_classes
from ..graph.multigraph import MultiGraph
from ..local.rounds import RoundCounter, ensure_counter
from ..nashwilliams.pseudoarboricity import (
    exact_pseudoarboricity,
    orientation_exists,
    pseudoforest_decomposition_from_orientation,
)
from ..pipeline import Pass, Pipeline, PipelineContext, Scheduler
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


def _class_parent_arrays(snapshot, eids):
    """Root one color class; returns the (parent edge id, child vertex
    id) arrays plus the tree depth — pure per-class work, fanned out by
    the orient pass."""
    forest = rooted_forest_arrays(snapshot, eids)
    children = forest.parent_eid >= 0
    return (
        forest.parent_eid[children],
        snapshot.vertex_ids[children],
        forest.max_depth,
    )


def orientation_from_forest_decomposition(
    graph: MultiGraph,
    coloring: Dict[int, int],
    rounds: Optional[RoundCounter] = None,
    ctx: Optional[PipelineContext] = None,
) -> Orientation:
    """Orient every edge toward its tree root (Corollary 1.1 step).

    Out-degree is bounded by the number of colors.  Charges O(D) rounds
    where D is the largest tree diameter (the paper's conversion cost).
    Given a pipeline ``ctx``, the per-color rootings fan out through
    ``ctx.fan_out`` (reconciled in sorted color order).
    """
    counter = ensure_counter(rounds)
    snapshot = snapshot_of(graph)
    classes = sorted(color_classes(coloring).items())
    if ctx is not None:
        per_class = ctx.fan_out(
            [
                (lambda eids=eids: _class_parent_arrays(snapshot, eids))
                for _color, eids in classes
            ]
        )
    else:
        per_class = [
            _class_parent_arrays(snapshot, eids) for _color, eids in classes
        ]
    orientation: Orientation = {}
    worst_depth = 0
    for parent_eids, child_ids, depth in per_class:
        worst_depth = max(worst_depth, depth)
        # tail = child; edge points to parent
        orientation.update(zip(parent_eids.tolist(), child_ids.tolist()))
    counter.charge(2 * worst_depth + 1, "orient toward roots")
    return orientation


# ----------------------------------------------------------------------
# Corollary 1.1 as a pass list
# ----------------------------------------------------------------------


def _or_setup(ctx: PipelineContext) -> None:
    if ctx["method"] not in ORIENTATION_METHODS:
        raise DecompositionError(
            f"unknown orientation method {ctx['method']!r}"
        )
    ctx["stats"] = TaskStats()


def _or_decompose(ctx: PipelineContext) -> None:
    graph = ctx["graph"]
    method = ctx["method"]
    if method == "augmentation":
        result = forest_decomposition_algorithm2(
            graph,
            ctx["epsilon"],
            alpha=ctx["alpha"],
            diameter_mode="auto",
            seed=ctx["seed"],
            rounds=ctx.counter,
        )
        ctx["forest_result"] = result
        ctx["bound"] = result.colors_used
        ctx.note(reconcile_volume=len(result.coloring))
    elif method == "hpartition":
        pseudo = ctx["pseudoarboricity"]
        if pseudo is None:
            pseudo = exact_pseudoarboricity(graph)
        threshold = max(1, default_threshold(pseudo, ctx["epsilon"]))
        snapshot = snapshot_of(graph)
        ctx["partition"] = h_partition(
            graph, threshold, ctx.counter, snapshot=snapshot,
        )
        ctx["snapshot"] = snapshot
        ctx["bound"] = threshold
        ctx.note(vertices_touched=graph.n)
    # "exact" needs no substrate — the orient pass computes the witness.


def _or_orient(ctx: PipelineContext) -> None:
    graph = ctx["graph"]
    method = ctx["method"]
    if method == "augmentation":
        ctx["orientation"] = orientation_from_forest_decomposition(
            graph, ctx["forest_result"].coloring, ctx.counter, ctx=ctx
        )
    elif method == "hpartition":
        ctx["orientation"] = acyclic_orientation(
            graph, ctx["partition"], ctx.counter, snapshot=ctx["snapshot"],
        )
    else:  # exact
        from ..nashwilliams.arboricity import exact_arboricity

        alpha = ctx["alpha"]
        if alpha is None:
            alpha = exact_arboricity(graph)
        bound = max(1, math.ceil((1.0 + ctx["epsilon"]) * max(alpha, 1)))
        witness = orientation_exists(graph, bound)
        if witness is None:
            raise DecompositionError(
                f"no {bound}-orientation exists (alpha underestimated?)"
            )
        ctx.counter.charge(1, "exact orientation (centralized witness)")
        ctx["orientation"] = witness
        ctx["bound"] = bound
    ctx.note(reconcile_volume=len(ctx["orientation"]))


def _or_finalize(ctx: PipelineContext) -> None:
    ctx["result"] = OrientationResult(
        ctx["orientation"], ctx["bound"], rounds=ctx.counter,
        stats=ctx["stats"], graph=ctx["graph"],
    )


def _pf_fold(ctx: PipelineContext) -> None:
    ctx["pf_coloring"] = pseudoforest_decomposition_from_orientation(
        ctx["graph"], ctx["orientation"]
    )
    ctx.note(reconcile_volume=len(ctx["pf_coloring"]))


def _pf_finalize(ctx: PipelineContext) -> None:
    ctx["result"] = PseudoforestResult(
        ctx["pf_coloring"], ctx["bound"], rounds=ctx.counter,
        stats=ctx["stats"], graph=ctx["graph"],
    )


_ORIENT_PASSES = [
    Pass(
        "setup", _or_setup,
        writes=("stats",),
        description="validate the method selection",
    ),
    Pass(
        "decompose", _or_decompose,
        writes=(
            "forest_result", "partition", "bound", "snapshot",
        ),
        description="produce the substrate: Algorithm 2 forests "
                    "(augmentation), H-partition (hpartition), or "
                    "nothing (exact)",
        citation="Theorem 4.6 / Theorem 2.1(2)",
    ),
    Pass(
        "orient", _or_orient,
        reads=("forest_result", "partition"),
        writes=("orientation", "bound"),
        description="point every edge at its parent / peel level / "
                    "flow witness; per-color rootings are the fan-out "
                    "unit",
        citation="Corollary 1.1",
    ),
]

#: Corollary 1.1 as a declared pass list.
ORIENTATION_PIPELINE = Pipeline(
    "orientation",
    _ORIENT_PASSES + [
        Pass(
            "finalize", _or_finalize,
            reads=("orientation", "bound"), writes=("result",),
            description="assemble the OrientationResult",
        ),
    ],
    description="Corollary 1.1: (1+ε)α low out-degree orientation",
)

#: The pseudoforest companion rides on the orientation passes and adds
#: a fold: out-edges of one vertex share a pseudoforest index.
PSEUDOFOREST_PIPELINE = Pipeline(
    "pseudoforest",
    _ORIENT_PASSES + [
        Pass(
            "fold", _pf_fold,
            reads=("orientation",), writes=("pf_coloring",),
            description="group each vertex's out-edges into one "
                        "pseudoforest per out-slot",
            citation="Corollary 1.1 companion",
        ),
        Pass(
            "finalize", _pf_finalize,
            reads=("pf_coloring", "bound"), writes=("result",),
            description="assemble the PseudoforestResult",
        ),
    ],
    description="Corollary 1.1 companion: (1+ε)α pseudoforest "
                "decomposition",
)


def _run_orientation_pipeline(
    pipeline: Pipeline,
    graph: MultiGraph,
    epsilon: float,
    alpha: Optional[int],
    method: str,
    seed: SeedLike,
    counter: RoundCounter,
    pseudoarboricity: Optional[int],
):
    ctx = PipelineContext(
        counter=counter,
        values={
            "graph": graph,
            "epsilon": epsilon,
            "alpha": alpha,
            "method": method,
            "seed": seed,
            "pseudoarboricity": pseudoarboricity,
        },
    )
    result = Scheduler().run(pipeline, ctx)
    result.stats.passes = ctx.pass_stats
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
    """Corollary 1.1 as a protocol result: runs
    :data:`ORIENTATION_PIPELINE` and returns the
    :class:`~repro.core.results.OrientationResult` (per-pass records in
    ``result.stats["passes"]``).  See :func:`low_outdegree_orientation`
    for the knobs; that wrapper unwraps this result into the historical
    ``(orientation, bound)`` tuple.
    """
    counter = ensure_counter(rounds)
    return _run_orientation_pipeline(
        ORIENTATION_PIPELINE, graph, epsilon, alpha, method, seed,
        counter, pseudoarboricity,
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
    """The pseudoforest companion of Corollary 1.1: runs
    :data:`PSEUDOFOREST_PIPELINE` (the orientation passes plus the
    fold) and returns the :class:`~repro.core.results.
    PseudoforestResult`."""
    counter = ensure_counter(rounds)
    return _run_orientation_pipeline(
        PSEUDOFOREST_PIPELINE, graph, epsilon, alpha, method, seed,
        counter, pseudoarboricity,
    )


def low_outdegree_orientation(
    graph: MultiGraph,
    epsilon: float,
    alpha: Optional[int] = None,
    method: str = "augmentation",
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
    pseudoarboricity: Optional[int] = None,
) -> Tuple[Orientation, int]:
    """A (1+ε)α-orientation; returns (orientation, out-degree bound).

    ``method``:

    * ``"augmentation"`` — Corollary 1.1: Algorithm 2 forest
      decomposition (with bounded diameter), then orient to roots.
      Out-degree ≤ #forests ≈ (1+ε)α; rounds linear in 1/ε.
    * ``"hpartition"`` — the (2+ε)α* baseline of Theorem 2.1(2).
    * ``"exact"`` — centralized flow witness at ⌈(1+ε)α⌉ (ground truth).

    ``pseudoarboricity`` lets callers (e.g. a
    :class:`~repro.core.session.Session`) inject the memoized exact
    value for the ``"hpartition"`` method instead of recomputing it.
    """
    result = orientation_decomposition(
        graph, epsilon, alpha=alpha, method=method, seed=seed,
        rounds=rounds, pseudoarboricity=pseudoarboricity,
    )
    return result.orientation, result.bound
