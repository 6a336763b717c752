"""High-level public API.

These wrappers are what downstream users should call; each maps to one
headline result of the paper.  Since the unified-API redesign they are
thin shims over the task registry, and the dispatch plumbing is
*config-first*: every wrapper
accepts ``config=`` directly, and its legacy keyword signature is
funneled through one shim (:func:`_config_from_kwargs`) into a
:class:`~repro.core.config.DecompositionConfig` before dispatching
through :func:`repro.decompose`.  The wrappers, the
:class:`~repro.core.session.Session` workflow, and the CLI therefore
share one code path.
Return shapes are unchanged — result objects where they always were,
``(coloring, bound)`` tuples where they always were — so existing code
and the golden regressions are untouched.  The per-knob keyword
spellings remain supported indefinitely, but new code should prefer
passing ``config=`` (see the deprecation note in ``docs/api.md``).

:func:`describe` prints a task's stages — names, in execution order,
and paper citations — from the static :data:`TASK_STAGES` table,
without running anything.

For repeated queries against one graph prefer::

    session = repro.Session(graph)
    fd = session.decompose("forest", config)
    orient = session.decompose("orientation", config)   # reuses prep

which pays the graph-prep phase (CSR snapshot, exact arboricity /
pseudoarboricity) once.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..graph.multigraph import MultiGraph
from ..local.rounds import RoundCounter
from ..nashwilliams.arboricity import (
    exact_arboricity,
    exact_forest_decomposition,
)
from ..nashwilliams.pseudoarboricity import exact_pseudoarboricity
from ..rng import SeedLike
from ..decomposition.hpartition import (
    default_threshold,
    h_partition,
)
from .config import DecompositionConfig
from .forest_decomposition import (
    ForestDecompositionResult,
    algorithm2,
)
from .list_forest import RESERVE_ATTEMPTS, ListForestDecompositionResult
from .orientation import Orientation
from .registry import (
    available_tasks,
    get_task,
    register_task,
)
from .results import (
    DecompositionResult,
    OrientationResult,
    PseudoforestResult,
)
from .session import Session, decompose
from .star_forest import StarForestResult, two_coloring_star_forests

__all__ = [
    # unified surface
    "decompose",
    "describe",
    "Session",
    "DecompositionConfig",
    "DecompositionResult",
    "register_task",
    "available_tasks",
    # task wrappers (legacy shapes, registry-backed)
    "forest_decomposition",
    "list_forest_decomposition",
    "star_forest_decomposition",
    "list_star_forest_decomposition",
    "pseudoforest_decomposition",
    "low_outdegree_orientation",
    "barenboim_elkin_forest_decomposition",
    # ground truth + building blocks
    "exact_arboricity",
    "exact_forest_decomposition",
    "exact_pseudoarboricity",
    "algorithm2",
    "two_coloring_star_forests",
    # result classes
    "ForestDecompositionResult",
    "ListForestDecompositionResult",
    "StarForestResult",
    "OrientationResult",
    "PseudoforestResult",
]


def _config_from_kwargs(
    config: Optional[DecompositionConfig] = None,
    **kwargs,
) -> DecompositionConfig:
    """The dispatch shim behind every legacy wrapper signature.

    ``config=`` wins when given (the config-first path — per-knob
    keywords are then ignored); otherwise the legacy keywords build a
    :class:`~repro.core.config.DecompositionConfig`.  Keeping the
    funnel in one place means the wrappers stay signature-compatible
    while the actual dispatch is uniformly config-shaped.
    """
    if config is not None:
        return config
    return DecompositionConfig(**kwargs)


#: (stage, description, citation) per built-in task, in execution
#: order; the stage names are those of the ``PassStats`` records a run
#: leaves in ``result.stats["passes"]``.
_ORIENT_STAGES = (
    ("setup", "validate the method selection", ""),
    ("decompose",
     "produce the substrate: Algorithm 2 forests (augmentation), "
     "H-partition (hpartition), or nothing (exact)",
     "Theorem 4.6 / Theorem 2.1(2)"),
    ("orient",
     "point every edge at its parent / peel level / flow witness; "
     "per-color rootings are independent work units",
     "Corollary 1.1"),
)
_SECTION5_HEAD = (
    ("setup", "resolve α and the t = ⌈(1+ε)α⌉ budget", ""),
    ("orient", "exact t-orientation ([SV19a] substitute)",
     "Theorem 5.4 setup"),
)
TASK_STAGES: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
    "forest": (
        ("setup",
         "resolve α (Gabow–Westermann exact) and build the (1+ε/6)α "
         "ordinary palettes",
         "Theorem 4.6 budget split"),
        ("algorithm2",
         "Algorithm 2: network decomposition schedules cluster balls; "
         "CUT + augmenting sequences color E0",
         "Theorem 4.5"),
        ("leftover_recolor",
         "recolor the CUT leftover with fresh colors via an H-partition",
         "Theorem 2.1(4)"),
        ("diameter_reduce",
         "depth-cut every color class at a random residue mod z, recolor "
         "deletions as star forests (no-op unless diameter_mode is set)",
         "Corollary 2.5"),
        ("finalize", "assemble the ForestDecompositionResult", ""),
    ),
    "list_forest": (
        ("setup", "resolve α and split the ε budget (ε' = ε/10)", ""),
        ("split",
         "vertex-color-splitting of every palette into main Q0 / "
         "reserve Q1",
         "Theorem 4.9 / Proposition 4.8"),
        ("algorithm2", "Algorithm 2 on the main palettes colors E0",
         "Theorem 4.5"),
        ("diameter_reduce",
         "depth-cut φ0's deep trees; deletions join the leftover",
         "Proposition 2.4"),
        ("reserve", "LSFD recolors the leftover from the reserve palettes",
         "Theorem 2.3"),
        ("combine", "overlay the two phases", "Proposition 4.8"),
    ),
    "star_forest": _SECTION5_HEAD + (
        ("sample", "uniform random α-subsets C(v)", "Lemma 5.2"),
        ("matchings",
         "per-vertex H_v matchings (independent work units), "
         "LLL-resampling vertices whose deficit exceeds ⌈2εα⌉",
         "Lemma 5.2 (distributed LLL)"),
        ("assemble",
         "matched slots become ('amr', i) colors; unmatched edges join "
         "the leftover",
         ""),
        ("leftover_recolor",
         "Theorem 2.1(3) recoloring of the leftover with fresh "
         "('extra', ...) colors",
         "Proposition 5.1 / Theorem 2.1(3)"),
        ("finalize", "assemble the StarForestResult", ""),
    ),
    "list_star_forest": _SECTION5_HEAD + (
        ("sample", "independent (1−ε) color retention per vertex",
         "Lemma 5.3"),
        ("matchings",
         "per-vertex H_v matchings (independent work units); must "
         "become perfect or ConvergenceError",
         "Lemma 5.3 (distributed LLL)"),
        ("finalize", "matched slots become palette colors", ""),
    ),
    "orientation": _ORIENT_STAGES + (
        ("finalize", "assemble the OrientationResult", ""),
    ),
    "pseudoforest": _ORIENT_STAGES + (
        ("fold",
         "group each vertex's out-edges into one pseudoforest per "
         "out-slot",
         "Corollary 1.1 companion"),
        ("finalize", "assemble the PseudoforestResult", ""),
    ),
}

#: Lines ``describe`` prints after a task's stages.
_STAGE_NOTES: Dict[str, str] = {
    "list_forest": (
        "retry: on ReservePaletteError restart from 'split' "
        f"(max {RESERVE_ATTEMPTS} attempts)"
    ),
    "list_star_forest": (
        "method=\"hpartition\" runs Theorem 2.3 directly and records "
        "no stages"
    ),
}


def describe(task: str) -> str:
    """The stages of a registered task, as text.

    Lists the stages in execution order with their descriptions and
    paper citations, plus list_forest's Las Vegas retry — without
    running anything.  Also available as
    ``python -m repro describe <task>``.
    """
    spec = get_task(task)
    lines = [f"task: {spec.name}"]
    if spec.description:
        lines.append(f"  {spec.description}")
    if spec.citation:
        lines.append(f"  [{spec.citation}]")
    stages = TASK_STAGES.get(spec.name)
    if stages is None:
        lines.append("  (opaque runner: no declared stages)")
        return "\n".join(lines)
    lines.append("passes (execution order):")
    for i, (name, description, citation) in enumerate(stages, start=1):
        lines.append(f"  {i}. {name}")
        lines.append(f"       {description}")
        if citation:
            lines.append(f"       [{citation}]")
    if spec.name in _STAGE_NOTES:
        lines.append(_STAGE_NOTES[spec.name])
    return "\n".join(lines)


def forest_decomposition(
    graph: MultiGraph,
    epsilon: float = 0.5,
    alpha: Optional[int] = None,
    diameter_mode: Optional[str] = None,
    cut_rule: str = "depth_residue",
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
    config: Optional[DecompositionConfig] = None,
) -> ForestDecompositionResult:
    """(1+ε)α forest decomposition of a multigraph (Theorem 4.6).

    Parameters
    ----------
    graph:
        Any multigraph (no self-loops).
    epsilon:
        Excess-color budget: the decomposition targets ~(1+ε)α forests.
    alpha:
        The arboricity if known (e.g. by construction); computed
        exactly (centralized) when omitted.
    diameter_mode:
        None for unbounded forest diameter; ``"safe"`` for O(log n/ε);
        ``"strong"`` for O(1/ε) (regime α ≥ Ω(log n) per Cor. 2.5);
        ``"auto"`` picks by α.
    cut_rule:
        CUT implementation per Theorem 4.2: ``"depth_residue"`` or
        ``"conditioned_sampling"``.

    Returns a :class:`ForestDecompositionResult` whose ``coloring`` maps
    every edge id to a forest index, with ``colors_used`` and charged
    LOCAL ``rounds``; the result implements the uniform protocol
    (``forests()``, ``coloring_array()``, ``validate()``, ``to_json()``).
    Pass ``config=`` to skip the per-knob keywords entirely.
    """
    config = _config_from_kwargs(
        config,
        epsilon=epsilon, alpha=alpha, seed=seed,
        diameter_mode=diameter_mode, cut_rule=cut_rule,
    )
    return decompose(graph, task="forest", config=config, rounds=rounds)


def list_forest_decomposition(
    graph: MultiGraph,
    palettes: Dict[int, Sequence[int]],
    epsilon: float,
    alpha: Optional[int] = None,
    splitting: str = "cluster",
    cut_rule: str = "depth_residue",
    reserve_probability: Optional[float] = None,
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
    radius: Optional[int] = None,
    search_radius: Optional[int] = None,
    config: Optional[DecompositionConfig] = None,
) -> ListForestDecompositionResult:
    """(1+ε)α list-forest decomposition of a multigraph (Theorem 4.10).

    ``palettes`` must give every edge at least ``⌈(1+ε)α⌉`` colors;
    ``splitting`` chooses the Theorem 4.9 variant (``"cluster"`` or
    ``"independent"``).
    """
    config = _config_from_kwargs(
        config,
        epsilon=epsilon, alpha=alpha, seed=seed,
        cut_rule=cut_rule,
    )
    return decompose(
        graph, task="list_forest", config=config, rounds=rounds,
        palettes=palettes, splitting=splitting,
        reserve_probability=reserve_probability,
        radius=radius, search_radius=search_radius,
    )


def star_forest_decomposition(
    graph: MultiGraph,
    epsilon: float = 0.25,
    alpha: Optional[int] = None,
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
    config: Optional[DecompositionConfig] = None,
) -> StarForestResult:
    """(1+O(ε))α star-forest decomposition of a simple graph
    (Theorem 5.4(1); regime α ≥ Ω(√log Δ + log α))."""
    config = _config_from_kwargs(
        config,
        epsilon=epsilon, alpha=alpha, seed=seed,
    )
    return decompose(graph, task="star_forest", config=config, rounds=rounds)


def list_star_forest_decomposition(
    graph: MultiGraph,
    palettes: Dict[int, Sequence[int]],
    epsilon: float = 0.05,
    alpha: Optional[int] = None,
    method: str = "amr",
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
    config: Optional[DecompositionConfig] = None,
) -> StarForestResult:
    """List star-forest decomposition of a simple graph.

    ``method="amr"`` is Theorem 5.4(2) ((1+O(ε))α colors, regime
    α ≥ Ω(log Δ), palettes ≥ α(1+200ε)); ``method="hpartition"`` is the
    Theorem 2.3 fallback ((4+ε)α* colors, any α)."""
    config = _config_from_kwargs(
        config,
        epsilon=epsilon, alpha=alpha, seed=seed,
    )
    return decompose(
        graph, task="list_star_forest", config=config, rounds=rounds,
        palettes=palettes, method=method,
    )


def pseudoforest_decomposition(
    graph: MultiGraph,
    epsilon: float = 0.5,
    alpha: Optional[int] = None,
    method: str = "augmentation",
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
    config: Optional[DecompositionConfig] = None,
) -> Tuple[Dict[int, int], int]:
    """(1+ε)α pseudoforest decomposition (the Corollary 1.1 companion).

    A k-orientation is exactly a k-pseudoforest decomposition: rank each
    vertex's out-edges and each rank class is a functional graph.
    Returns (coloring, number of pseudoforests)."""
    config = _config_from_kwargs(
        config,
        epsilon=epsilon, alpha=alpha, seed=seed,
    )
    result = decompose(
        graph, task="pseudoforest", config=config, rounds=rounds,
        method=method,
    )
    return result.coloring, result.k


def low_outdegree_orientation(
    graph: MultiGraph,
    epsilon: float,
    alpha: Optional[int] = None,
    method: str = "augmentation",
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
    config: Optional[DecompositionConfig] = None,
) -> Tuple[Orientation, int]:
    """A (1+ε)α-orientation (Corollary 1.1); returns (orientation,
    out-degree bound).  ``method`` is ``"augmentation"`` (the paper),
    ``"hpartition"`` (the (2+ε)α* baseline) or ``"exact"`` (flow
    witness ground truth)."""
    config = _config_from_kwargs(
        config,
        epsilon=epsilon, alpha=alpha, seed=seed,
    )
    result = decompose(
        graph, task="orientation", config=config, rounds=rounds,
        method=method,
    )
    return result.orientation, result.bound


def barenboim_elkin_forest_decomposition(
    graph: MultiGraph,
    epsilon: float = 0.5,
    pseudoarboricity: Optional[int] = None,
    rounds: Optional[RoundCounter] = None,
) -> Tuple[Dict[int, int], int]:
    """The (2+ε)α baseline the paper improves on ([BE10] / Theorem 2.1).

    Returns (coloring, number of forests).  The coloring is the
    H-partition t-forest decomposition with t = ⌊(2+ε)α*⌋ (each
    vertex's out-edges get distinct forest labels)."""
    from ..local.rounds import ensure_counter

    counter = ensure_counter(rounds)
    if pseudoarboricity is None:
        pseudoarboricity = exact_pseudoarboricity(graph)
    threshold = max(1, default_threshold(pseudoarboricity, epsilon))
    from ..decomposition.hpartition import (
        acyclic_orientation,
        rooted_forests_from_orientation,
    )

    partition = h_partition(graph, threshold, counter)
    orientation = acyclic_orientation(graph, partition, counter)
    forests = rooted_forests_from_orientation(graph, orientation)
    coloring: Dict[int, int] = {}
    for label, eids in enumerate(forests):
        for eid in eids:
            coloring[eid] = label
    return coloring, len([f for f in forests if f])
