"""H-partition and its corollaries (Theorem 2.1, after Barenboim–Elkin).

Given ``t = ⌊(2+ε)α*⌋``, Theorem 2.1 provides, in O(log n/ε) rounds:

1. an *H-partition*: classes ``H_1, ..., H_k`` (k = O(log n/ε)) where
   every ``v ∈ H_i`` has at most ``t`` neighbors in ``H_i ∪ ... ∪ H_k``;
2. an *acyclic t-orientation* (out-degree ≤ t, no directed cycle);
3. a ``3t``-star-forest decomposition;
4. a ``t``-list-forest decomposition.

These are both the pre-existing baseline the paper improves on (its
(2+ε)α-FD) and subroutines of the main algorithms (leftover recoloring
in Theorem 4.6, the 3α-orientation inside CUT, Theorem 2.3's LSFD).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DecompositionError, PaletteError
from ..graph.csr import (
    CSRGraph,
    EdgeArrayMap,
    _canonical_backend,
    force_sharded_peeling,
)
from ..graph.forests import RootedForest
from ..graph.multigraph import MultiGraph
from ..graph.shard import ShardPlan, ShardedPeelingView, plan_of
from ..local.rounds import RoundCounter, ensure_counter
from .cole_vishkin import three_color_rooted_forest

Orientation = Dict[int, int]  # edge id -> tail vertex


# ----------------------------------------------------------------------
# Wave oracle: the delta engine's seam into the peel
# ----------------------------------------------------------------------
#
# A *wave oracle* is an object the incremental-decomposition service
# (repro.service.delta) hangs off a graph instance; it caches the peel's
# wave labels per threshold and repairs them locally under edge
# mutations.  ``h_partition`` consults it before peeling and feeds it
# after, so every caller — the orientation pipeline, CUT's internal
# 3α-orientation when run on the session graph, direct calls — shares
# one maintained wave assignment.  An oracle hit charges the same number
# of LOCAL rounds the peel would have (one per wave), keeping round
# accounting identical.  The protocol is duck-typed:
#
#   lookup(graph, threshold) -> Dict[vertex, wave] | None
#   record(graph, threshold, classes: Dict[vertex, wave]) -> None

_WAVE_ORACLE_ATTR = "_wave_oracle"


def install_wave_oracle(graph: MultiGraph, oracle) -> None:
    """Attach ``oracle`` to ``graph`` (one per graph; replaces any)."""
    graph.__dict__[_WAVE_ORACLE_ATTR] = oracle


def uninstall_wave_oracle(graph: MultiGraph) -> None:
    """Detach the graph's wave oracle, if any."""
    graph.__dict__.pop(_WAVE_ORACLE_ATTR, None)


def wave_oracle_of(graph: MultiGraph):
    """The graph's installed wave oracle, or None.  Slotted substrates
    (a :class:`CSRGraph` passed directly into the pipeline) can never
    carry one."""
    state = getattr(graph, "__dict__", None)
    return None if state is None else state.get(_WAVE_ORACLE_ATTR)


class HPartition:
    """Result of the peeling process: vertex classes + threshold."""

    def __init__(self, classes: Dict[int, int], threshold: int) -> None:
        self.classes = classes  # vertex -> class index (1-based)
        self.threshold = threshold

    @property
    def num_classes(self) -> int:
        return max(self.classes.values(), default=0)

    def members(self, index: int) -> List[int]:
        return [v for v, c in self.classes.items() if c == index]


def h_partition(
    graph: MultiGraph,
    threshold: int,
    rounds: Optional[RoundCounter] = None,
    max_iterations: Optional[int] = None,
    backend: str = "csr",
    snapshot: Optional[CSRGraph] = None,
    workers: int = 0,
    shard_plan: Optional[ShardPlan] = None,
) -> HPartition:
    """Peel vertices of remaining degree <= threshold into classes.

    ``threshold`` must be at least ⌊2·(max subgraph average degree)⌋,
    e.g. ``⌊(2+ε)α*⌋``; otherwise the peeling stalls and a
    :class:`DecompositionError` is raised.  Charges one LOCAL round per
    peeling wave.

    ``backend="csr"`` (default) runs each wave vectorized on the
    flat-array kernel; ``backend="sharded"`` runs the same waves on the
    multi-worker sharded view (``workers``: 0 = auto; ``shard_plan``:
    a cached :class:`~repro.graph.shard.ShardPlan`, e.g. from
    :meth:`~repro.core.session.Session.shard_plan`); ``backend="dict"``
    keeps the original dict-of-sets loop (reference implementation,
    used by the equivalence tests and benchmarks).  All three produce
    identical classes — sharded is bit-identical for every worker
    count.  ``"parallel"`` (and its alias ``"mp"``) peel on the sharded
    view.  A prebuilt ``snapshot`` of ``graph`` can be supplied to
    amortize conversion across several kernel-backed passes.

    Setting ``REPRO_FORCE_PARALLEL=1`` (which also reroutes the
    BFS-shaped hot paths through the wave engine) reroutes every
    ``csr`` peel through the sharded view — the CI forced-backend leg
    runs the full fast suite this way.  The worker count comes from
    ``REPRO_SHARD_WORKERS`` via the engine's single cached read
    (:func:`repro.parallel.engine.resolve_workers`), machine cores
    capped otherwise.
    """
    counter = ensure_counter(rounds)
    cap = max_iterations if max_iterations is not None else 4 * graph.n + 8
    oracle = wave_oracle_of(graph)
    if oracle is not None:
        cached = oracle.lookup(graph, threshold)
        if cached is not None:
            waves = max(cached.values(), default=0)
            if waves:
                counter.charge(waves, "H-partition wave")
            return HPartition(cached, threshold)
    backend = _canonical_backend(backend)
    if backend == "dict":
        partition = _h_partition_dict(graph, threshold, counter, cap)
        if oracle is not None:
            oracle.record(graph, threshold, partition.classes)
        return partition
    if backend == "parallel":
        # The parallel pipeline backend peels on the sharded view; the
        # engine-backed BFS specialization lives in the traversal /
        # carving layers.
        backend = "sharded"
    if backend == "csr" and force_sharded_peeling():
        backend = "sharded"
    if backend not in ("csr", "sharded"):
        raise DecompositionError(f"unknown h_partition backend {backend!r}")

    snap = snapshot if snapshot is not None else CSRGraph.from_multigraph(graph)
    if backend == "sharded":
        plan = shard_plan if shard_plan is not None else plan_of(snap)
        view = ShardedPeelingView(snap, plan, workers)
    else:
        view = snap.peeling_view()
    vertex_ids = snap.vertex_ids.tolist()
    classes: Dict[int, int] = {}
    wave = 0
    while view.alive_count:
        wave += 1
        if wave > cap:
            raise DecompositionError(
                f"H-partition stalled: threshold {threshold} too small"
            )
        removed = view.peel_leq(threshold)
        if removed.size == 0:
            raise DecompositionError(
                f"H-partition stalled: threshold {threshold} too small "
                f"(no vertex of degree <= {threshold} remains)"
            )
        for index in removed.tolist():
            classes[vertex_ids[index]] = wave
        counter.charge(1, "H-partition wave")

    if oracle is not None:
        oracle.record(graph, threshold, classes)
    return HPartition(classes, threshold)


def _h_partition_dict(
    graph: MultiGraph, threshold: int, counter: RoundCounter, cap: int
) -> HPartition:
    """Reference dict-backed peeling loop (pre-kernel implementation)."""
    remaining_degree: Dict[int, int] = {
        v: graph.degree(v) for v in graph.vertices()
    }
    classes: Dict[int, int] = {}
    alive = set(graph.vertices())
    wave = 0

    while alive:
        wave += 1
        if wave > cap:
            raise DecompositionError(
                f"H-partition stalled: threshold {threshold} too small"
            )
        # repro: allow(det-set-order) — int-only vertex set: int hashes are
        # PYTHONHASHSEED-independent, so iteration order is a pure function
        # of the insertion sequence; the order feeds only commutative
        # per-vertex class stamps, and the frozen goldens certify it.
        leaving = [v for v in alive if remaining_degree[v] <= threshold]
        if not leaving:
            raise DecompositionError(
                f"H-partition stalled: threshold {threshold} too small "
                f"(no vertex of degree <= {threshold} remains)"
            )
        for v in leaving:
            classes[v] = wave
        leaving_set = set(leaving)
        alive -= leaving_set
        for v in leaving:
            for _eid, other in graph.incident(v):
                if other in alive:
                    remaining_degree[other] -= 1
        counter.charge(1, "H-partition wave")

    return HPartition(classes, threshold)


def default_threshold(pseudoarboricity: int, epsilon: float) -> int:
    """``t = ⌊(2+ε)α*⌋`` as in Theorem 2.1."""
    return int(math.floor((2.0 + epsilon) * pseudoarboricity))


def acyclic_orientation(
    graph: MultiGraph,
    partition: HPartition,
    rounds: Optional[RoundCounter] = None,
    backend: str = "csr",
    snapshot: Optional[CSRGraph] = None,
) -> Orientation:
    """Theorem 2.1(2): orient low class -> high class, ties by vertex id.

    The result is acyclic with out-degree at most the partition
    threshold.  Charges one round (purely local decision per edge).
    The default ``backend="csr"`` evaluates the per-edge comparison
    vectorized on the flat-array kernel; ``backend="dict"`` is the
    reference per-edge loop.  Outputs are identical.
    """
    counter = ensure_counter(rounds)
    classes = partition.classes
    orientation: Orientation
    backend = _canonical_backend(backend)
    if backend == "dict":
        orientation = {}
        for eid, u, v in graph.edges():
            cu, cv = classes[u], classes[v]
            if (cu, u) < (cv, v):
                orientation[eid] = u
            else:
                orientation[eid] = v
    elif backend in ("csr", "sharded", "parallel"):
        # the wave-engine backends only specialize the peel / BFS
        # phases; the per-edge comparison is one vectorized pass
        # either way.  The result is an array-backed mapping
        # (:class:`~repro.graph.csr.EdgeArrayMap`) — == any dict with
        # the same items, but never materializes m Python ints unless a
        # caller truly iterates it, which is what keeps the orientation
        # step inside the out-of-core RSS budget on memmap snapshots.
        snap = snapshot if snapshot is not None else CSRGraph.from_multigraph(graph)
        if snap.num_edges == 0:
            orientation = {}
        else:
            class_by_index = np.fromiter(
                (classes[v] for v in snap.vertex_ids.tolist()),
                dtype=np.int64,
                count=snap.num_vertices,
            )
            class_u = class_by_index[snap.edge_u]
            class_v = class_by_index[snap.edge_v]
            u_ids = snap.edge_u_ids
            v_ids = snap.edge_v_ids
            u_wins = (class_u < class_v) | ((class_u == class_v) & (u_ids < v_ids))
            tails = np.where(u_wins, u_ids, v_ids)
            orientation = EdgeArrayMap(snap.edge_id, tails)
    else:
        raise DecompositionError(f"unknown orientation backend {backend!r}")
    counter.charge(1, "orientation")
    return orientation


def out_edges_by_vertex(
    graph: MultiGraph, orientation: Orientation
) -> Dict[int, List[int]]:
    """Group edge ids by their tail vertex (vertices with none included)."""
    out: Dict[int, List[int]] = {v: [] for v in graph.vertices()}
    for eid, tail in orientation.items():
        out[tail].append(eid)
    return out


def rooted_forests_from_orientation(
    graph: MultiGraph, orientation: Orientation
) -> List[List[int]]:
    """Split edges into forests by ranking each vertex's out-edges.

    With an *acyclic* t-orientation, giving each vertex's out-edges
    distinct labels 0..t-1 yields t forests (each label class has at
    most one out-edge per vertex and no cycles).  Returns a list of
    edge-id lists, one per label.
    """
    by_vertex = out_edges_by_vertex(graph, orientation)
    t = max((len(edges) for edges in by_vertex.values()), default=0)
    forests: List[List[int]] = [[] for _ in range(t)]
    for _v, edges in by_vertex.items():
        for index, eid in enumerate(sorted(edges)):
            forests[index].append(eid)
    return forests


def star_forest_decomposition_via_hpartition(
    graph: MultiGraph,
    partition: HPartition,
    rounds: Optional[RoundCounter] = None,
) -> Dict[int, Tuple[int, int]]:
    """Theorem 2.1(3): a ``3t``-star-forest decomposition.

    Returns edge id -> (forest label, parent 3-color); the pair is the
    star-forest color.  Each label class is a rooted forest (edges point
    to parents); Cole–Vishkin 3-colors its vertices and each edge takes
    its parent's color, splitting the forest into 3 star-forests.
    """
    counter = ensure_counter(rounds)
    orientation = acyclic_orientation(graph, partition, counter)
    forests = rooted_forests_from_orientation(graph, orientation)
    coloring: Dict[int, Tuple[int, int]] = {}
    for label, eids in enumerate(forests):
        if not eids:
            continue
        # Parent of edge (u -> v) is v: edges point from child to parent
        # (each vertex has at most one out-edge per label).
        forest = RootedForest(graph, eids)
        vertex_colors = three_color_rooted_forest(forest, counter)
        for eid in eids:
            u, v = graph.endpoints(eid)
            tail = orientation[eid]
            head = v if tail == u else u
            coloring[eid] = (label, vertex_colors[head])
    return coloring


def list_forest_decomposition_via_hpartition(
    graph: MultiGraph,
    partition: HPartition,
    palettes: Dict[int, Sequence[int]],
    rounds: Optional[RoundCounter] = None,
) -> Dict[int, int]:
    """Theorem 2.1(4): a ``t``-list-forest decomposition.

    Every palette must have at least ``t`` colors, where ``t`` is the
    partition threshold.  For each vertex, its out-edges pick distinct
    palette colors greedily; the acyclicity of the orientation makes
    every color class acyclic.  Charges O(1) rounds.
    """
    counter = ensure_counter(rounds)
    orientation = acyclic_orientation(graph, partition, counter)
    by_vertex = out_edges_by_vertex(graph, orientation)
    coloring: Dict[int, int] = {}
    for vertex, eids in by_vertex.items():
        used: set = set()
        for eid in sorted(eids):
            palette = palettes[eid]
            chosen = None
            for color in palette:
                if color not in used:
                    chosen = color
                    break
            if chosen is None:
                raise PaletteError(
                    f"palette of edge {eid} exhausted at vertex {vertex}: "
                    f"need more than {len(used)} colors"
                )
            used.add(chosen)
            coloring[eid] = chosen
    counter.charge(1, "per-vertex palette picking")
    return coloring
