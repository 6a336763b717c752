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

The peel and the orientation run on the arrays of the graph's cached
flat-array snapshot (:func:`~repro.graph.csr.snapshot_of`).  The dict
loops they were ported from are the test suite's reference
(``tests/reference/peel.py``); the equivalence corpus checks identical
classes, orientations and charged rounds against it.  The 3t-star
split roots all of its label classes in one call of the stacked
rooting kernel (:func:`~repro.graph.csr.rooted_forest_class_depths`)
and feeds Cole–Vishkin the resulting parent maps.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DecompositionError, PaletteError
from ..graph.csr import (
    EdgeArrayMap,
    _concat_ranges,
    apply_degree_decrements,
    rooted_forest_class_depths,
    snapshot_of,
)
from ..graph.multigraph import MultiGraph
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
# after, so every caller — the orientation task, CUT's internal
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
) -> HPartition:
    """Peel vertices of remaining degree <= threshold into classes.

    ``threshold`` must be at least ⌊2·(max subgraph average degree)⌋,
    e.g. ``⌊(2+ε)α*⌋``; otherwise the peeling stalls and a
    :class:`DecompositionError` is raised.  Charges one LOCAL round per
    peeling wave.

    Each wave runs vectorized on the snapshot's arrays, touching only
    the previous wave's threshold-crossing frontier after the first
    full scan.  It peels the graph's cached snapshot
    (:func:`~repro.graph.csr.snapshot_of`), so every kernel-backed pass
    on the same graph shares one conversion.
    """
    counter = ensure_counter(rounds)
    oracle = wave_oracle_of(graph)
    if oracle is not None:
        cached = oracle.lookup(graph, threshold)
        if cached is not None:
            waves = max(cached.values(), default=0)
            if waves:
                counter.charge(waves, "H-partition wave")
            return HPartition(cached, threshold)
    snap = snapshot_of(graph)
    n = snap.num_vertices
    offsets = snap.vertex_offsets
    vertex_ids = snap.vertex_ids.tolist()
    alive = np.ones(n, dtype=bool)
    remaining = snap.degrees().astype(np.int64)
    # Work-list invariant: after a wave, a live vertex has remaining
    # degree <= threshold iff that wave's degree update pushed it
    # there (any other such vertex left in the wave itself), so the
    # update's crossing set is the next wave's removal set.
    removed = np.flatnonzero(remaining <= threshold)
    left = n
    classes: Dict[int, int] = {}
    wave = 0
    while left:
        wave += 1
        if removed.size == 0:
            raise DecompositionError(
                f"H-partition stalled: threshold {threshold} too small "
                f"(no vertex of degree <= {threshold} remains)"
            )
        alive[removed] = False
        left -= int(removed.size)
        for index in removed.tolist():
            classes[vertex_ids[index]] = wave
        counter.charge(1, "H-partition wave")
        half = _concat_ranges(offsets[removed], offsets[removed + 1])
        neighbors = snap.neighbor_ids[half]
        neighbors = neighbors[alive[neighbors]]
        touched = apply_degree_decrements(remaining, neighbors, n)
        removed = touched[remaining[touched] <= threshold]

    if oracle is not None:
        oracle.record(graph, threshold, classes)
    return HPartition(classes, threshold)


def default_threshold(pseudoarboricity: int, epsilon: float) -> int:
    """``t = ⌊(2+ε)α*⌋`` as in Theorem 2.1."""
    return int(math.floor((2.0 + epsilon) * pseudoarboricity))


def acyclic_orientation(
    graph: MultiGraph,
    partition: HPartition,
    rounds: Optional[RoundCounter] = None,
) -> Orientation:
    """Theorem 2.1(2): orient low class -> high class, ties by vertex id.

    The result is acyclic with out-degree at most the partition
    threshold.  Charges one round (purely local decision per edge).
    The per-edge comparison runs vectorized on the graph's cached
    flat-array snapshot.
    """
    counter = ensure_counter(rounds)
    classes = partition.classes
    orientation: Orientation
    # The result is an array-backed mapping
    # (:class:`~repro.graph.csr.EdgeArrayMap`) — == any dict with the
    # same items, but never materializes m Python ints unless a caller
    # truly iterates it, which is what keeps the orientation step
    # inside the out-of-core RSS budget on memmap snapshots.
    snap = snapshot_of(graph)
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
    Cole–Vishkin runs on each class rooted at its trees' minimum vertex
    ids, all classes rooted in one stacked kernel call.
    """
    counter = ensure_counter(rounds)
    orientation = acyclic_orientation(graph, partition, counter)
    forests = rooted_forests_from_orientation(graph, orientation)
    labelled = [(label, eids) for label, eids in enumerate(forests) if eids]
    snap = snapshot_of(graph)
    positions = [snap.edge_positions(eids) for _label, eids in labelled]
    per_class, _waves = rooted_forest_class_depths(snap, positions)
    coloring: Dict[int, Tuple[int, int]] = {}
    for (label, eids), pos, (_du, _dv, children) in zip(
        labelled, positions, per_class
    ):
        u_ids = snap.edge_u_ids[pos]
        v_ids = snap.edge_v_ids[pos]
        parents = np.where(children == u_ids, v_ids, u_ids).tolist()
        # Roots appear only as parents and keep None.
        parent = dict.fromkeys(parents)
        parent.update(zip(children.tolist(), parents))
        vertex_colors = three_color_rooted_forest(parent, counter)
        # Parent of edge (u -> v) is v: edges point from child to parent
        # (each vertex has at most one out-edge per label).
        for eid, u, v in zip(eids, u_ids.tolist(), v_ids.tolist()):
            head = v if orientation[eid] == u else u
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
