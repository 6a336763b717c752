"""Algorithm 2 and the full (1+ε)α forest decomposition
(Theorems 4.1, 4.5, 4.6).

``algorithm2`` is the paper's main loop: a network decomposition of the
power graph ``G^{2(R+R')}`` schedules cluster balls; per cluster, CUT
severs monochromatic escape paths, then every uncolored edge touching
the cluster is colored by a locally-found augmenting sequence.  The
output is a partition ``E = E0 ⊔ E1`` with a list-forest decomposition
on ``E0`` and a small-pseudo-arboricity leftover ``E1``.

``forest_decomposition_algorithm2`` = Theorem 4.6: run Algorithm 2 with
ordinary palettes ``{0..⌈(1+ε')α⌉-1}``, recolor the leftover with fresh
colors via Theorem 2.1, and optionally reduce forest diameters via
Corollary 2.5 (recoloring that stage's deletions as star forests, whose
diameter is 2).  Each step is a stage function that takes its inputs as
arguments and returns its outputs; :class:`~repro.pipeline.Scheduler`
records one :class:`~repro.pipeline.PassStats` per stage.

Locality note: the augmenting search is radius-capped at ``R'``; when a
cap is too small for the instance (paper constants are asymptotic) the
search falls back to an uncapped run and the event is counted in
``stats.locality_violations`` — the output is still a valid
decomposition, and benches report the violation rate per regime.

Every ``R'``-ball (a cluster's ``C'`` and each augmenting search's
``N^{R'}(e)``) is resolved per connected component.  One multi-source
BFS from each component's root gives ``ecc(root)``, and the triangle
inequality through the root gives ``ecc(x) ≤ 2·ecc(root)`` for every
``x`` in the component.  So when ``2·ecc(root) ≤ R'`` every ``R'``-ball
of sources inside that component *is* the component, exactly: its
vertex set is built once and shared.  Other components (and sources
spanning two components) run the bounded BFS.  The balls are the same
sets as a per-call BFS builds, so outputs do not depend on the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import AugmentationError
from ..graph.csr import CSRGraph, _concat_ranges, _sorted_unique
from ..graph import traversal as _traversal
from ..graph.multigraph import MultiGraph
from ..local.rounds import RoundCounter, ensure_counter
from ..nashwilliams.arboricity import exact_arboricity
from ..nashwilliams.pseudoarboricity import exact_pseudoarboricity
from ..rng import SeedLike, child_rng, make_rng
from ..decomposition.hpartition import (
    acyclic_orientation,
    h_partition,
    list_forest_decomposition_via_hpartition,
    star_forest_decomposition_via_hpartition,
)
from ..decomposition.network_decomposition import network_decomposition
from ..pipeline import PassStats, Scheduler
from .algorithm_stats import TaskStats
from .augmenting import AugmentationStats, augment_edge
from .cut import CutController, is_cut_good
from .diameter_reduction import reduce_diameter
from .partial_coloring import PartialListForestDecomposition
from .results import DecompositionResult

Palettes = Dict[int, Sequence[int]]

# Re-exported only because the frozen perfbench tracer patches this name here.
power_graph = _traversal.power_graph


@dataclass
class Algorithm2Stats(TaskStats):
    """Diagnostics for benches and tests (typed; explicit
    ``to_json()`` via :class:`~repro.core.algorithm_stats.TaskStats`)."""

    clusters_processed: int = 0
    edges_augmented: int = 0
    locality_violations: int = 0
    cut_removed: int = 0
    cut_fallback_removed: int = 0
    max_cut_load: int = 0
    good_cuts: int = 0
    bad_cuts: int = 0
    max_sequence_length: int = 0
    radius: int = 0
    search_radius: int = 0


class Algorithm2Result:
    """E0/E1 split produced by Algorithm 2 (Theorem 4.5)."""

    def __init__(
        self,
        state: PartialListForestDecomposition,
        stats: Algorithm2Stats,
        rounds: RoundCounter,
    ) -> None:
        self.state = state
        self.stats = stats
        self.rounds = rounds

    @property
    def colored(self) -> Dict[int, int]:
        """E0 with its list-forest coloring."""
        return self.state.colored_edges()

    @property
    def leftover(self) -> List[int]:
        """E1: edges removed by CUT."""
        return self.state.leftover_edges()

    def leftover_orientation(self) -> Dict[int, int]:
        return self.state.leftover_orientation()


def default_radii(n: int, epsilon: float) -> Tuple[int, int]:
    """Practical (R, R') defaults: both Θ(log n / ε) with constant 2.

    The paper's constants are asymptotic; these defaults keep the same
    functional form so the charged-round scaling matches the theory,
    while remaining meaningful at laptop n.
    """
    log_n = max(1.0, math.log2(n + 1))
    r = max(4, math.ceil(2.0 * log_n / max(epsilon, 1e-9)))
    r_prime = max(4, math.ceil(2.0 * log_n / max(epsilon, 1e-9)))
    return r, r_prime


def algorithm2(
    graph: MultiGraph,
    palettes: Palettes,
    epsilon: float,
    alpha: int,
    cut_rule: str = "depth_residue",
    radius: Optional[int] = None,
    search_radius: Optional[int] = None,
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
) -> Algorithm2Result:
    """Run Algorithm 2 on ``graph`` with the given per-edge palettes.

    Parameters
    ----------
    palettes:
        Per-edge palettes; sizes ≥ ⌈(1+ε)α⌉ guarantee every non-leftover
        edge is colored (Theorem 3.2).
    epsilon, alpha:
        The decomposition parameters; ``⌈εα⌉`` is the leftover budget.
    cut_rule:
        ``"depth_residue"`` or ``"conditioned_sampling"`` (Theorem 4.2).
    radius, search_radius:
        ``R`` and ``R'``; defaults follow :func:`default_radii`.  A
        radius-capped augmenting search that fails falls back to an
        uncapped one (see the module's locality note).
    """
    counter = ensure_counter(rounds)
    rng = make_rng(seed)
    stats = Algorithm2Stats()
    state = PartialListForestDecomposition(graph, palettes)
    if graph.m == 0:
        return Algorithm2Result(state, stats, counter)

    n = graph.n
    default_r, default_r_prime = default_radii(n, epsilon)
    r = radius if radius is not None else default_r
    r_prime = search_radius if search_radius is not None else default_r_prime
    stats.radius = r
    stats.search_radius = r_prime
    d = r + r_prime

    orientation_j = None
    if cut_rule == "conditioned_sampling":
        with counter.phase("orientation J"):
            pseudo = exact_pseudoarboricity(graph)
            snapshot = state.csr_snapshot()
            partition = h_partition(
                graph, max(1, 3 * pseudo), counter, snapshot=snapshot,
            )
            orientation_j = acyclic_orientation(
                graph, partition, counter, snapshot=snapshot,
            )

    controller = CutController(
        state,
        epsilon,
        alpha,
        rule=cut_rule,
        orientation=orientation_j,
        probability=None,
        seed=child_rng(rng, "cut"),
        rounds=counter,
    )

    with counter.phase("network decomposition"):
        # G^{2(R+R')} is carved implicitly on G, as Theorem 4.1
        # simulates it: every shell of the carve is one depth-≤k BFS
        # over the run's CSR snapshot, so the power graph (K_n on a
        # low-diameter input) is never built.
        k = max(1, min(2 * d, 2 * n))
        nd = network_decomposition(
            state.csr_snapshot(), counter, radius_cost=2 * d, power=k,
        )

    balls = _BallResolver(state.csr_snapshot())
    log_n = max(1, math.ceil(math.log2(n + 1)))
    with counter.phase("cluster processing"):
        for clusters in nd.classes:
            with counter.parallel():
                for cluster in clusters:
                    _process_cluster(
                        graph,
                        state,
                        controller,
                        balls,
                        cluster,
                        r,
                        r_prime,
                        stats,
                        counter,
                    )
            counter.charge(2 * d * log_n, "class simulation")

    stats.cut_removed = controller.stats.removed_edges
    stats.cut_fallback_removed = controller.stats.fallback_removed
    stats.max_cut_load = controller.stats.max_load
    return Algorithm2Result(state, stats, counter)


class _BallResolver:
    """``N^r(X)`` over one run's snapshot, resolved per component.

    Returns exactly :meth:`CSRGraph.neighborhood_set`.  A component
    whose root (minimum dense index) has ``2·ecc(root) ≤ r`` answers
    with its whole vertex set, built once on first use and shared, so
    callers treat balls as read-only; anything else runs the bounded
    BFS (see the module's locality note).
    """

    def __init__(self, snapshot: CSRGraph) -> None:
        self.snapshot = snapshot
        labels = snapshot.component_labels()
        roots = np.flatnonzero(labels == np.arange(labels.size))
        dist = snapshot.distance_array(roots)
        ecc = np.zeros(labels.size, dtype=np.int64)
        np.maximum.at(ecc, labels, dist)
        self._labels = labels
        self._label_list = labels.tolist()
        self._bound = (2 * ecc).tolist()  # indexed by component label
        self._components: Dict[int, Set[int]] = {}

    def ball(self, sources: Sequence[int], radius: Optional[int]) -> Set[int]:
        snapshot = self.snapshot
        components = {
            self._label_list[snapshot.index_of(vertex)] for vertex in sources
        }
        if len(components) != 1:
            return snapshot.neighborhood_set(sources, radius)
        (label,) = components
        if radius is not None and self._bound[label] > radius:
            return snapshot.neighborhood_set(sources, radius)
        component = self._components.get(label)
        if component is None:
            component = snapshot.vertex_set_from_mask(self._labels == label)
            self._components[label] = component
        return component


def _incident_edge_ids(
    snapshot: CSRGraph, vertices: Sequence[int]
) -> List[int]:
    """Ids of the edges touching ``vertices``, ascending, each once: the
    snapshot's incidence lists are the vertex -> edge index, so a
    cluster costs its own degree sum, not O(m)."""
    index = np.fromiter(
        (snapshot.index_of(v) for v in vertices),
        dtype=np.int64, count=len(vertices),
    )
    offsets = snapshot.vertex_offsets
    half = _concat_ranges(offsets[index], offsets[index + 1])
    return _sorted_unique(snapshot.edge_ids[half]).tolist()


def _process_cluster(
    graph: MultiGraph,
    state: PartialListForestDecomposition,
    controller: CutController,
    balls: _BallResolver,
    cluster: Sequence[int],
    r: int,
    r_prime: int,
    stats: Algorithm2Stats,
    counter: RoundCounter,
) -> None:
    stats.clusters_processed += 1
    core = balls.ball(cluster, r_prime)  # C' = N^{R'}(C)
    controller.cut(core, r)
    if is_cut_good(state, core, r):
        stats.good_cuts += 1
    else:
        stats.bad_cuts += 1

    pending = [
        eid
        for eid in _incident_edge_ids(balls.snapshot, cluster)
        if state.color_of(eid) is None and not state.is_leftover(eid)
    ]
    for eid in pending:
        if state.color_of(eid) is not None or state.is_leftover(eid):
            continue
        u, v = graph.endpoints(eid)
        ball = balls.ball((u, v), r_prime)
        search_stats = AugmentationStats()
        try:
            sequence = augment_edge(state, eid, ball, stats=search_stats)
        except AugmentationError:
            stats.locality_violations += 1
            sequence = augment_edge(state, eid, None, stats=search_stats)
        stats.edges_augmented += 1
        stats.max_sequence_length = max(
            stats.max_sequence_length, len(sequence)
        )


# ----------------------------------------------------------------------
# Theorem 4.6: ordinary (1+ε)α forest decomposition
# ----------------------------------------------------------------------


class ForestDecompositionResult(DecompositionResult):
    """Final (1+ε)α-FD: coloring + provenance + accounting.

    Implements the uniform result protocol
    (:class:`~repro.core.results.DecompositionResult`): ``forests()``,
    ``coloring_array()``, ``validate()``, ``to_json()``.
    """

    kind = "forest"

    def __init__(
        self,
        graph: MultiGraph,
        coloring: Dict[int, int],
        alpha: int,
        epsilon: float,
        colors_used: int,
        rounds: RoundCounter,
        stats: Algorithm2Stats,
        leftover_size: int,
    ) -> None:
        self.graph = graph
        self.coloring = coloring
        self.alpha = alpha
        self.epsilon = epsilon
        self.colors_used = colors_used
        self.rounds = rounds
        self.stats = stats
        self.leftover_size = leftover_size

    @property
    def color_budget(self) -> int:
        """The (1+ε)α target the run was configured for."""
        return max(1, math.ceil((1.0 + self.epsilon) * self.alpha))


def _forest_setup(record: PassStats, graph: MultiGraph,
                  alpha: Optional[int], epsilon: float):
    """Resolve α and the ⌈(1+ε/6)α⌉ ordinary palettes; returns
    ``(alpha, base_colors, palettes)``."""
    if alpha is None:
        alpha = exact_arboricity(graph)
    if alpha == 0:
        return alpha, 0, {}
    base_colors = max(1, math.ceil((1.0 + epsilon / 6.0) * alpha))
    palettes = {eid: range(base_colors) for eid in graph.edge_ids()}
    record.vertices_touched = graph.n
    return alpha, base_colors, palettes


def _forest_algorithm2(
    record: PassStats,
    graph: MultiGraph,
    palettes: Palettes,
    epsilon: float,
    alpha: int,
    rng,
    counter: RoundCounter,
    cut_rule: str,
    radius: Optional[int],
    search_radius: Optional[int],
) -> Tuple[Algorithm2Result, Dict[int, int]]:
    with counter.phase("algorithm2"):
        result = algorithm2(
            graph,
            palettes,
            epsilon / 6.0,
            alpha,
            cut_rule=cut_rule,
            radius=radius,
            search_radius=search_radius,
            seed=child_rng(rng, "alg2"),
            rounds=counter,
        )
    coloring = dict(result.colored)
    record.reconcile_volume = len(coloring)
    return result, coloring


def _forest_leftover_recolor(
    record: PassStats,
    graph: MultiGraph,
    leftover: List[int],
    coloring: Dict[int, int],
    next_color: int,
    counter: RoundCounter,
    as_star_forests: bool,
) -> int:
    with counter.phase("leftover recoloring"):
        next_color = _recolor_fresh(
            graph, leftover, coloring, next_color, counter,
            as_star_forests=as_star_forests,
        )
    record.reconcile_volume = len(leftover)
    return next_color


def _forest_diameter_reduce(
    record: PassStats,
    graph: MultiGraph,
    coloring: Dict[int, int],
    next_color: int,
    epsilon: float,
    alpha: int,
    diameter_mode: Optional[str],
    rng,
    counter: RoundCounter,
) -> Dict[int, int]:
    if diameter_mode is None:
        return coloring
    with counter.phase("diameter reduction"):
        reduction = reduce_diameter(
            graph,
            coloring,
            epsilon / 6.0,
            alpha,
            mode=diameter_mode,
            seed=child_rng(rng, "diam"),
            rounds=counter,
        )
        coloring = dict(reduction.kept)
        _recolor_fresh(
            graph, reduction.deleted, coloring, next_color, counter,
            as_star_forests=True,
        )
    record.items = len(set(coloring.values()))
    record.reconcile_volume = len(reduction.deleted)
    return coloring


def forest_decomposition_algorithm2(
    graph: MultiGraph,
    epsilon: float,
    alpha: Optional[int] = None,
    cut_rule: str = "depth_residue",
    diameter_mode: Optional[str] = None,
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
    radius: Optional[int] = None,
    search_radius: Optional[int] = None,
) -> ForestDecompositionResult:
    """Theorem 4.6: a (1+ε)α-forest decomposition of a multigraph.

    Budget split (ε' = ε/6 each): Algorithm 2 colors E0 with
    ⌈(1+ε')α⌉ colors; the CUT leftover (pseudo-arboricity ≤ ⌈ε'α⌉) is
    recolored with fresh colors via Theorem 2.1(4); with
    ``diameter_mode`` in {"strong", "safe", "auto"} a Corollary 2.5
    stage then bounds forest diameters, recoloring its own deletions as
    star forests (diameter 2).

    Runs the stages ``setup``, ``algorithm2``, ``leftover_recolor``,
    ``diameter_reduce`` and ``finalize``; their records land in
    ``result.stats["passes"]``.
    """
    counter = ensure_counter(rounds)
    rng = make_rng(seed)
    scheduler = Scheduler(counter)
    alpha, base_colors, palettes = scheduler.stage(
        "setup", _forest_setup, graph, alpha, epsilon,
    )
    if alpha == 0:
        result = ForestDecompositionResult(
            graph, {}, 0, epsilon, 0, counter, Algorithm2Stats(), 0,
        )
        result.stats.passes = scheduler.passes
        return result
    alg2, coloring = scheduler.stage(
        "algorithm2", _forest_algorithm2, graph, palettes, epsilon, alpha,
        rng, counter, cut_rule=cut_rule, radius=radius,
        search_radius=search_radius,
    )
    leftover = alg2.leftover
    next_color = scheduler.stage(
        "leftover_recolor", _forest_leftover_recolor, graph, leftover,
        coloring, base_colors, counter,
        as_star_forests=diameter_mode is not None,
    )
    coloring = scheduler.stage(
        "diameter_reduce", _forest_diameter_reduce, graph, coloring,
        next_color, epsilon, alpha, diameter_mode, rng, counter,
    )
    result = scheduler.stage(
        "finalize",
        lambda _record: ForestDecompositionResult(
            graph, coloring, alpha, epsilon, len(set(coloring.values())),
            counter, alg2.stats, len(leftover),
        ),
    )
    result.stats.passes = scheduler.passes
    return result


def _recolor_fresh(
    graph: MultiGraph,
    eids: Sequence[int],
    coloring: Dict[int, int],
    next_color: int,
    counter: RoundCounter,
    as_star_forests: bool,
) -> int:
    """Color ``eids`` with fresh colors starting at ``next_color`` via
    Theorem 2.1; returns the next unused color index."""
    if not eids:
        return next_color
    sub = graph.edge_subgraph(eids)
    pseudo = max(1, exact_pseudoarboricity(sub))
    threshold = max(1, math.floor(2.5 * pseudo))
    partition = h_partition(sub, threshold, counter)
    if as_star_forests:
        star = star_forest_decomposition_via_hpartition(sub, partition, counter)
        labels = sorted(set(star.values()))
        index = {label: next_color + i for i, label in enumerate(labels)}
        for eid, label in star.items():
            coloring[eid] = index[label]
        return next_color + len(labels)
    t = threshold
    palettes = {eid: range(next_color, next_color + t) for eid in sub.edge_ids()}
    lfd = list_forest_decomposition_via_hpartition(sub, partition, palettes, counter)
    used = sorted(set(lfd.values()))
    remap = {c: next_color + i for i, c in enumerate(used)}
    for eid, c in lfd.items():
        coloring[eid] = remap[c]
    return next_color + len(used)
