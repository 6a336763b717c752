"""Algorithm 2 and the full (1+ε)α forest-decomposition pipelines
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
Corollary 2.5 (recoloring that pass's deletions as star forests, whose
diameter is 2).

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

from ..errors import AugmentationError, DecompositionError
from ..graph.csr import CSRGraph, _canonical_backend, resolve_backend
from ..graph.multigraph import MultiGraph
from ..graph.traversal import power_graph
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
from ..pipeline import Pass, Pipeline, PipelineContext, Scheduler, resolve_schedule
from .algorithm_stats import TaskStats
from .augmenting import AugmentationStats, augment_edge
from .cut import CutController, is_cut_good
from .diameter_reduction import reduce_diameter
from .partial_coloring import PartialListForestDecomposition
from .results import DecompositionResult

Palettes = Dict[int, Sequence[int]]


def _split_backend(backend: str) -> Tuple[str, str]:
    """``(peel, substrate)`` substrates for a pipeline backend string.

    The sharded backend only specializes threshold peeling (its
    traversal phases run on plain CSR arrays); the parallel backend
    additionally routes the BFS-shaped phases (ball carving,
    color-class scans, diameter reduction) through the shared wave
    engine — ``resolve_backend`` gates each callsite by size.
    """
    backend = _canonical_backend(backend)
    if backend == "dict":
        return "dict", "dict"
    if backend == "sharded":
        return "sharded", "csr"
    if backend == "parallel":
        return "sharded", "parallel"
    return "csr", "csr"


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
    strict_locality: bool = False,
    backend: str = "auto",
    workers: int = 0,
    carve_rule: str = "doubling",
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
    carve_rule:
        Ball-growth schedule of the network decomposition phase:
        ``"doubling"`` (default) or ``"simultaneous"`` (see
        :func:`~repro.decomposition.network_decomposition`).
    radius, search_radius:
        ``R`` and ``R'``; defaults follow :func:`default_radii`.
    strict_locality:
        If True, a failed radius-capped augmenting search raises instead
        of falling back to an uncapped search.
    backend:
        Graph substrate: ``"auto"`` (default, kernel-backed),
        ``"dict"`` (the byte-identical reference paths throughout),
        ``"csr"``, ``"sharded"`` (multi-worker peeling waves with
        ``workers`` threads; traversal/color phases run on the same
        CSR arrays as ``"csr"``), ``"parallel"`` (sharded peeling plus
        the shared wave engine for the BFS-shaped phases; ``"mp"`` is
        an alias).  Outputs are identical across backends and worker
        counts (certified by the kernel-equivalence suite).
    """
    backend = _canonical_backend(backend)
    if backend not in ("auto", "dict", "csr", "sharded", "parallel"):
        raise DecompositionError(f"unknown backend {backend!r}")
    counter = ensure_counter(rounds)
    rng = make_rng(seed)
    stats = Algorithm2Stats()
    state = PartialListForestDecomposition(
        graph, palettes,
        backend="csr" if backend == "sharded" else backend,
        workers=workers,
    )
    if graph.m == 0:
        return Algorithm2Result(state, stats, counter)

    n = graph.n
    default_r, default_r_prime = default_radii(n, epsilon)
    r = radius if radius is not None else default_r
    r_prime = search_radius if search_radius is not None else default_r_prime
    stats.radius = r
    stats.search_radius = r_prime
    d = r + r_prime

    peel_backend, substrate = _split_backend(backend)
    orientation_j = None
    if cut_rule == "conditioned_sampling":
        with counter.phase("orientation J"):
            pseudo = exact_pseudoarboricity(graph)
            snapshot = None if substrate == "dict" else state.csr_snapshot()
            partition = h_partition(
                graph, max(1, 3 * pseudo), counter,
                backend=peel_backend, snapshot=snapshot, workers=workers,
            )
            orientation_j = acyclic_orientation(
                graph, partition, counter,
                backend=peel_backend, snapshot=snapshot,
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
        # The run's CSR snapshot feeds the power graph directly: the
        # radius-bounded frontier sweeps assemble G^{2(R+R')} as a CSR
        # snapshot without ever materializing a dict multigraph, and the
        # ball carving consumes it on the same arrays.  Clusters are
        # identical to the dict reference path (kernel-equivalence
        # suite + golden regression certify this).
        if substrate == "dict":
            power = power_graph(
                graph, max(1, min(2 * d, 2 * n)), backend="dict"
            )
        else:
            power = power_graph(
                state.csr_snapshot(), max(1, min(2 * d, 2 * n)), backend="csr"
            )
        nd = network_decomposition(
            power, counter, radius_cost=2 * d, backend=substrate,
            workers=workers, carve_rule=carve_rule,
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
                        strict_locality,
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


def _process_cluster(
    graph: MultiGraph,
    state: PartialListForestDecomposition,
    controller: CutController,
    balls: _BallResolver,
    cluster: Sequence[int],
    r: int,
    r_prime: int,
    stats: Algorithm2Stats,
    strict_locality: bool,
    counter: RoundCounter,
) -> None:
    stats.clusters_processed += 1
    core = balls.ball(cluster, r_prime)  # C' = N^{R'}(C)
    controller.cut(core, r)
    if is_cut_good(state, core, r):
        stats.good_cuts += 1
    else:
        stats.bad_cuts += 1

    cluster_set = set(cluster)
    pending = [
        eid
        for eid in state.uncolored_edges()
        if any(v in cluster_set for v in graph.endpoints(eid))
    ]
    for eid in sorted(pending):
        if state.color_of(eid) is not None or state.is_leftover(eid):
            continue
        u, v = graph.endpoints(eid)
        ball = balls.ball((u, v), r_prime)
        search_stats = AugmentationStats()
        try:
            sequence = augment_edge(state, eid, ball, stats=search_stats)
        except AugmentationError:
            if strict_locality:
                raise
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


def _forest_setup(ctx: PipelineContext) -> None:
    graph = ctx["graph"]
    alpha = ctx["alpha"]
    if alpha is None:
        alpha = exact_arboricity(graph)
        ctx["alpha"] = alpha
    ctx["empty"] = alpha == 0
    if ctx["empty"]:
        return
    eps_prime = ctx["epsilon"] / 6.0
    base_colors = max(1, math.ceil((1.0 + eps_prime) * alpha))
    ctx["eps_prime"] = eps_prime
    ctx["base_colors"] = base_colors
    ctx["palettes"] = {eid: range(base_colors) for eid in graph.edge_ids()}
    ctx.note(vertices_touched=graph.n)


def _forest_algorithm2(ctx: PipelineContext) -> None:
    if ctx["empty"]:
        return
    counter = ctx.counter
    with counter.phase("algorithm2"):
        result = algorithm2(
            ctx["graph"],
            ctx["palettes"],
            ctx["eps_prime"],
            ctx["alpha"],
            cut_rule=ctx["cut_rule"],
            radius=ctx["radius"],
            search_radius=ctx["search_radius"],
            seed=child_rng(ctx["rng"], "alg2"),
            rounds=counter,
            backend=ctx["backend"],
            workers=ctx["workers"],
            carve_rule=ctx["carve_rule"],
        )
    ctx["alg2"] = result
    ctx["coloring"] = dict(result.colored)
    ctx["next_color"] = ctx["base_colors"]
    ctx["leftover"] = result.leftover
    ctx.note(reconcile_volume=len(ctx["coloring"]))


def _forest_leftover_recolor(ctx: PipelineContext) -> None:
    if ctx["empty"]:
        return
    counter = ctx.counter
    peel_backend, _substrate = _split_backend(ctx["backend"])
    with counter.phase("leftover recoloring"):
        ctx["next_color"] = _recolor_fresh(
            ctx["graph"], ctx["leftover"], ctx["coloring"],
            ctx["next_color"], counter,
            as_star_forests=ctx["diameter_mode"] is not None,
            backend=peel_backend,
            workers=ctx["workers"],
        )
    ctx.note(reconcile_volume=len(ctx["leftover"]))


def _forest_diameter_reduce(ctx: PipelineContext) -> None:
    if ctx["empty"] or ctx["diameter_mode"] is None:
        return
    counter = ctx.counter
    peel_backend, _substrate = _split_backend(ctx["backend"])
    with counter.phase("diameter reduction"):
        reduction = reduce_diameter(
            ctx["graph"],
            ctx["coloring"],
            ctx["epsilon"] / 6.0,
            ctx["alpha"],
            mode=ctx["diameter_mode"],
            seed=child_rng(ctx["rng"], "diam"),
            rounds=counter,
            backend=ctx["backend"],
            workers=ctx["workers"],
            schedule=ctx.schedule,
        )
        ctx["coloring"] = dict(reduction.kept)
        ctx["next_color"] = _recolor_fresh(
            ctx["graph"],
            reduction.deleted,
            ctx["coloring"],
            ctx["next_color"],
            counter,
            as_star_forests=True,
            backend=peel_backend,
            workers=ctx["workers"],
        )
    ctx.note(
        items=len(set(ctx["coloring"].values())),
        reconcile_volume=len(reduction.deleted),
    )


def _forest_finalize(ctx: PipelineContext) -> None:
    graph = ctx["graph"]
    if ctx["empty"]:
        ctx["result"] = ForestDecompositionResult(
            graph, {}, 0, ctx["epsilon"], 0, ctx.counter,
            Algorithm2Stats(), 0,
        )
        return
    coloring = ctx["coloring"]
    colors_used = len(set(coloring.values()))
    ctx["result"] = ForestDecompositionResult(
        graph,
        coloring,
        ctx["alpha"],
        ctx["epsilon"],
        colors_used,
        ctx.counter,
        ctx["alg2"].stats,
        len(ctx["leftover"]),
    )


#: Theorem 4.6 as a declared pass DAG (a dependency chain: each stage
#: consumes the previous stage's coloring, so levels are singletons and
#: the concurrency lives inside the diameter pass's batched rooting).
FOREST_PIPELINE = Pipeline(
    "forest",
    [
        Pass(
            "setup", _forest_setup,
            writes=("alpha", "empty", "eps_prime", "base_colors", "palettes"),
            description="resolve α (Gabow–Westermann exact) and build "
                        "the (1+ε/6)α ordinary palettes",
            citation="Theorem 4.6 budget split",
        ),
        Pass(
            "algorithm2", _forest_algorithm2, deps=("setup",),
            reads=("graph", "palettes", "eps_prime", "alpha"),
            writes=("alg2", "coloring", "next_color", "leftover"),
            description="Algorithm 2: network decomposition schedules "
                        "cluster balls; CUT + augmenting sequences "
                        "color E0",
            citation="Theorem 4.5",
        ),
        Pass(
            "leftover_recolor", _forest_leftover_recolor,
            deps=("algorithm2",),
            reads=("leftover",), writes=("coloring", "next_color"),
            description="recolor the CUT leftover with fresh colors "
                        "via an H-partition",
            citation="Theorem 2.1(4)",
        ),
        Pass(
            "diameter_reduce", _forest_diameter_reduce,
            deps=("leftover_recolor",),
            reads=("coloring",), writes=("coloring", "next_color"),
            description="depth-cut every color class at a random "
                        "residue mod z, recolor deletions as star "
                        "forests (no-op unless diameter_mode is set)",
            citation="Corollary 2.5",
        ),
        Pass(
            "finalize", _forest_finalize, deps=("diameter_reduce",),
            reads=("coloring",), writes=("result",),
            description="assemble the ForestDecompositionResult",
        ),
    ],
    description="Theorem 4.6: (1+ε)α forest decomposition",
)


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
    backend: str = "auto",
    workers: int = 0,
    carve_rule: str = "doubling",
    schedule: str = "auto",
) -> ForestDecompositionResult:
    """Theorem 4.6: a (1+ε)α-forest decomposition of a multigraph.

    Budget split (ε' = ε/6 each): Algorithm 2 colors E0 with
    ⌈(1+ε')α⌉ colors; the CUT leftover (pseudo-arboricity ≤ ⌈ε'α⌉) is
    recolored with fresh colors via Theorem 2.1(4); with
    ``diameter_mode`` in {"strong", "safe", "auto"} a Corollary 2.5
    pass then bounds forest diameters, recoloring its own deletions as
    star forests (diameter 2).

    Executes :data:`FOREST_PIPELINE` under ``schedule`` (``"auto"`` /
    ``"serial"`` / ``"concurrent"``); outputs are bit-identical across
    schedules, and the executed per-pass records land in
    ``result.stats["passes"]``.
    """
    counter = ensure_counter(rounds)
    ctx = PipelineContext(
        counter=counter,
        values={
            "graph": graph,
            "epsilon": epsilon,
            "alpha": alpha,
            "cut_rule": cut_rule,
            "diameter_mode": diameter_mode,
            "rng": make_rng(seed),
            "radius": radius,
            "search_radius": search_radius,
            "backend": backend,
            "workers": workers,
            "carve_rule": carve_rule,
        },
    )
    scheduler = Scheduler(resolve_schedule(graph, schedule), workers)
    result = scheduler.run(FOREST_PIPELINE, ctx)
    result.stats.passes = ctx.pass_stats
    return result


def _recolor_fresh(
    graph: MultiGraph,
    eids: Sequence[int],
    coloring: Dict[int, int],
    next_color: int,
    counter: RoundCounter,
    as_star_forests: bool,
    backend: str = "csr",
    workers: int = 0,
) -> int:
    """Color ``eids`` with fresh colors starting at ``next_color`` via
    Theorem 2.1; returns the next unused color index."""
    if not eids:
        return next_color
    sub = graph.edge_subgraph(eids)
    pseudo = max(1, exact_pseudoarboricity(sub))
    threshold = max(1, math.floor(2.5 * pseudo))
    # Re-resolve per subgraph: the leftover is usually far below the
    # sharding cutoff even when the host graph runs sharded.
    peel = resolve_backend(sub, backend, DecompositionError, peeling=True)
    partition = h_partition(
        sub, threshold, counter, backend=peel, workers=workers
    )
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
