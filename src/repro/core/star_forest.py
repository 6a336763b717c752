"""Star-forest decompositions for simple graphs (Section 5).

The construction (after Alon–McDiarmid–Reed, strengthened by the
paper): fix a ``t``-orientation, ``t = ⌈(1+ε)α⌉``; every vertex ``v``
draws a color set ``C(v)`` and builds the bipartite graph ``H_v`` with
left nodes the colors, right nodes the out-neighbors ``A(v)``, and an
edge ``(i, u)`` iff ``i ∈ C(v) \\ C(u)`` (and ``i ∈ Q(uv)`` for the
list variant).  A matching ``(i, u) ∈ M_v`` colors edge ``vu`` with
``i``; every color class is a star forest (stars centered at vertices
not holding the color).  Lemma 5.2 (uniform random α-subsets) gives
matchings of size ≥ t − 2εα under a distributed LLL; Lemma 5.3
(independent (1−ε) color retention) gives *perfect* matchings for the
list variant.  Unmatched edges are recolored via Theorem 2.1(3)
(ordinary) — Proposition 5.1 bounds their pseudo-arboricity by the
matching deficit.

Both variants run as stage functions (``setup``, ``orient``,
``sample``, ``matchings``, then ``assemble`` and ``leftover_recolor``
for the ordinary variant, then ``finalize``).  ``orient`` lays every
vertex's out-edges into one slot table (a row per vertex: out-edges in
edge-id order, dummies up to ``t``).  The ordinary variant keeps
``C(v)`` as an ``(n, α)`` matrix and stacks every ``H_v`` into one
``(n, α, t)`` boolean array.  Hopcroft–Karp's first phase is plain
greedy (every left node has ``dist`` 0, so its DFS takes the first free
slot in order), and when greedy matches every color no later phase
runs (``graph/matching.py``).  So each LLL round runs one batched
greedy pass over all vertices and reruns Hopcroft–Karp
(``_sf_vertex_matching``) only at the few vertices greedy leaves a
color free, in vertex order: the matchings are exactly the per-vertex
Hopcroft–Karp ones.  The list variant's palettes are per-edge and
ragged; it reads the same slot table and runs Hopcroft–Karp per vertex.
The color-set draws stay in the single RNG stream, one per vertex in
``graph.vertices()`` order, and matchings consume no randomness.

Baselines for Corollary 1.2 are also here:
:func:`two_coloring_star_forests` (the classical ``αstar ≤ 2α``) and
the H-partition ``3t``-SFD re-export.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ConvergenceError, DecompositionError, GraphError
from ..graph.csr import rooted_forest_class_depths, snapshot_of
from ..graph.forests import color_classes
from ..graph.matching import batched_greedy_matching, hopcroft_karp
from ..graph.multigraph import MultiGraph
from ..local.rounds import RoundCounter, ensure_counter
from ..nashwilliams.arboricity import exact_arboricity
from ..nashwilliams.pseudoarboricity import (
    exact_pseudoarboricity,
    orientation_exists,
)
from ..pipeline import PassStats, Scheduler
from ..rng import SeedLike, make_rng
from ..decomposition.hpartition import (
    h_partition,
    star_forest_decomposition_via_hpartition,
)
from .algorithm_stats import StarForestStats
from .results import DecompositionResult

Palettes = Dict[int, Sequence[int]]


class StarForestResult(DecompositionResult):
    """Final SFD/LSFD: coloring + accounting.

    Implements the uniform result protocol
    (:class:`~repro.core.results.DecompositionResult`); validates each
    color class as a star forest.
    """

    kind = "star_forest"

    def __init__(
        self,
        coloring: Dict[int, object],
        colors_used: int,
        rounds: RoundCounter,
        stats: StarForestStats,
        graph: Optional[MultiGraph] = None,
    ) -> None:
        self.coloring = coloring
        self.colors_used = colors_used
        self.rounds = rounds
        self.stats = stats
        self.graph = graph


def _t_orientation(
    graph: MultiGraph,
    t: int,
    rounds: RoundCounter,
) -> Dict[int, int]:
    """A max-out-degree-``t`` orientation.

    Substitutes the [SV19a] CONGEST routine the paper calls; we use the
    exact flow witness (:func:`orientation_exists`, routed on the
    graph's cached snapshot: at ``t = ⌈(1+ε)α⌉`` its greedy first phase
    usually routes every edge) and charge the cited O~(log² n / ε²)
    rounds.
    """
    orientation = orientation_exists(graph, t)
    if orientation is None:
        raise DecompositionError(
            f"no {t}-orientation exists; t below pseudoarboricity"
        )
    n = max(graph.n, 2)
    log_n = math.ceil(math.log2(n + 1))
    rounds.charge(log_n * log_n, "t-orientation ([SV19a] substitute)")
    return orientation


class _SlotTable(NamedTuple):
    """Every vertex's out-edges under the ``t``-orientation, as the
    right nodes (slots) of its ``H_v``.

    Row ``i`` belongs to the ``i``-th vertex of ``graph.vertices()``
    (the snapshot's dense index): its out-edges in ascending edge-id
    order, then dummy slots (-1) up to ``t``.
    """

    eids: np.ndarray  # (n, t) edge id of each slot, -1 for a dummy
    heads: np.ndarray  # (n, t) dense index of the out-neighbor, or -1


def _slot_table(graph: MultiGraph, orientation: Dict[int, int],
                t: int) -> _SlotTable:
    """One sort of the oriented edges by ``(tail, eid)``; segment
    offsets give each edge its slot."""
    snapshot = snapshot_of(graph)
    n = snapshot.num_vertices
    count = len(orientation)
    eids = np.fromiter(orientation.keys(), dtype=np.int64, count=count)
    tail_ids = np.fromiter(orientation.values(), dtype=np.int64, count=count)
    pos = snapshot.edge_positions(eids)
    at_u = snapshot.edge_u_ids[pos] == tail_ids
    tails = np.where(at_u, snapshot.edge_u[pos], snapshot.edge_v[pos])
    heads = np.where(at_u, snapshot.edge_v[pos], snapshot.edge_u[pos])
    order = np.lexsort((eids, tails))
    tails = tails[order]
    out_degree = np.bincount(tails, minlength=n)
    starts = np.cumsum(out_degree) - out_degree
    slot = np.arange(count) - starts[tails]
    table = _SlotTable(
        np.full((n, t), -1, dtype=np.int64),
        np.full((n, t), -1, dtype=np.int64),
    )
    table.eids[tails, slot] = eids[order]
    table.heads[tails, slot] = heads[order]
    return table


def _hv_adjacency(slots: _SlotTable, colors: np.ndarray) -> np.ndarray:
    """Every vertex's ``H_v`` as one ``(n, α, t)`` boolean stack.

    ``colors[i]`` is ``sorted(C(v))`` of the ``i``-th vertex; entry
    ``[i, c, s]`` says color ``colors[i, c]`` may take slot ``s``:
    the slot is a dummy (dummies accept every color; they pad ``A(v)``
    to exactly ``t``, as in the paper's setup) or the out-neighbor's
    own set lacks the color.
    """
    n, t = slots.heads.shape
    member = np.zeros((n, t), dtype=bool)
    member[np.arange(n)[:, None], colors] = True
    dummy = slots.heads < 0
    heads = np.where(dummy, 0, slots.heads)
    held = member[heads[:, None, :], colors[:, :, None]]
    return dummy[:, None, :] | ~held


def _sf_vertex_matching(adjacency: np.ndarray) -> np.ndarray:
    """Hopcroft–Karp on one ``H_v`` (``adjacency[c, s]``: color ``c``
    may take slot ``s``); returns the slot each color took, -1 where
    it stays free.  Pure per-vertex work: no shared-state mutation and
    no RNG draws."""
    match_left, _ = hopcroft_karp(
        [np.flatnonzero(row).tolist() for row in adjacency]
    )
    match = np.full(len(adjacency), -1, dtype=np.int64)
    for left_index, slot in match_left.items():
        match[left_index] = slot
    return match


def _hv_matchings(slots: _SlotTable, colors: np.ndarray) -> np.ndarray:
    """Maximum matchings of every ``H_v``: the color on each slot
    (``(n, t)``, -1 where unmatched).

    Greedy is Hopcroft–Karp's first phase, and its answer wherever it
    matches every color (``graph/matching.py``), so one batched greedy
    pass settles most vertices; the rest rerun Hopcroft–Karp, in
    vertex order.
    """
    adjacency = _hv_adjacency(slots, colors)
    match = batched_greedy_matching(adjacency)
    for i in np.flatnonzero((match < 0).any(axis=1)).tolist():
        match[i] = _sf_vertex_matching(adjacency[i])
    slot_colors = np.full(slots.heads.shape, -1, dtype=np.int64)
    rows, left = np.nonzero(match >= 0)
    slot_colors[rows, match[rows, left]] = colors[rows, left]
    return slot_colors


# ----------------------------------------------------------------------
# Theorem 5.4(1): ordinary star-forest decomposition
# ----------------------------------------------------------------------


def _sf_setup(record: PassStats, graph: MultiGraph, alpha: Optional[int],
              epsilon: float) -> Tuple[int, int]:
    """Resolve α and the ``t = ⌈(1+ε)α⌉`` budget."""
    if alpha is None:
        alpha = exact_arboricity(graph)
    alpha = max(alpha, 1)
    return alpha, max(1, math.ceil((1.0 + epsilon) * alpha))


def _sf_orient(record: PassStats, graph: MultiGraph, t: int,
               stats: StarForestStats,
               counter: RoundCounter) -> _SlotTable:
    """Each vertex's out-edges under a ``t``-orientation, as slots."""
    orientation = _t_orientation(graph, t, counter)
    stats.orientation_bound = t
    record.reconcile_volume = len(orientation)
    return _slot_table(graph, orientation, t)


def _sf_sample(record: PassStats, graph: MultiGraph, alpha: int, t: int,
               rng, counter: RoundCounter):
    """Uniform random α-subsets ``C(v)`` of the ``t`` colors, one
    draw per vertex in ``graph.vertices()`` order; returns them as the
    ``(n, α)`` matrix of sorted sets and the sampler the LLL resamples
    with."""
    color_space = list(range(t))
    size = min(alpha, t)

    def sample_color_set(rng_) -> List[int]:
        return sorted(rng_.sample(color_space, size))

    colors = np.array(
        [sample_color_set(rng) for _v in graph.vertices()], dtype=np.int64,
    ).reshape(graph.n, size)
    counter.charge(1, "C(v) sampling")
    record.vertices_touched = graph.n
    return colors, sample_color_set


def _sf_matchings(
    record: PassStats,
    slots: _SlotTable,
    colors: np.ndarray,
    sample_color_set,
    rng,
    deficit_budget: int,
    max_lll_rounds: int,
    stats: StarForestStats,
    counter: RoundCounter,
) -> np.ndarray:
    """Every ``H_v`` matching, LLL-resampling (in vertex order) the
    vertices whose deficit exceeds ``deficit_budget``; returns the color
    on each slot, -1 where unmatched."""
    real = slots.heads >= 0
    n = len(real)
    dummies = int(real.size - np.count_nonzero(real))
    lll_round = 0
    while True:
        slot_colors = _hv_matchings(slots, colors)
        deficits = np.count_nonzero(real & (slot_colors < 0), axis=1)
        stats.dummy_slots += dummies
        record.items += n
        counter.charge(1, "H_v matchings")
        bad = np.flatnonzero(deficits > deficit_budget).tolist()
        if not bad:
            stats.matching_deficits = np.sort(deficits).tolist()
            break
        lll_round += 1
        stats.lll_rounds = lll_round
        if lll_round > max_lll_rounds:
            # Accept the current sets; excess deficit flows into the
            # leftover, which is recolored anyway — the output stays a
            # valid SFD, only the color count degrades (reported).
            stats.matching_deficits = np.sort(deficits).tolist()
            break
        for i in bad:
            colors[i] = sample_color_set(rng)
        counter.charge(1, "LLL resampling")
    return slot_colors


def _sf_assemble(
    record: PassStats,
    slots: _SlotTable,
    slot_colors: np.ndarray,
    stats: StarForestStats,
) -> Tuple[Dict[int, object], List[int]]:
    """Matched slots become ``("amr", i)`` colors; unmatched edges
    form the leftover (both in vertex, then slot order)."""
    real = slots.heads >= 0
    matched = real & (slot_colors >= 0)
    coloring: Dict[int, object] = {
        eid: ("amr", color)
        for eid, color in zip(
            slots.eids[matched].tolist(), slot_colors[matched].tolist()
        )
    }
    leftover = slots.eids[real & ~matched].tolist()
    stats.leftover_size = len(leftover)
    record.reconcile_volume = len(coloring) + len(leftover)
    return coloring, leftover


def _sf_leftover_recolor(
    record: PassStats,
    graph: MultiGraph,
    leftover: List[int],
    coloring: Dict[int, object],
    counter: RoundCounter,
) -> None:
    with counter.phase("leftover recoloring"):
        _recolor_leftover_stars(graph, leftover, coloring, counter)
    record.reconcile_volume = len(leftover)


def _star_forest_result(record: PassStats, coloring: Dict[int, object],
                        counter: RoundCounter, stats: StarForestStats,
                        graph: MultiGraph) -> StarForestResult:
    return StarForestResult(
        coloring, len(set(coloring.values())), counter, stats, graph=graph,
    )


def star_forest_decomposition_amr(
    graph: MultiGraph,
    epsilon: float,
    alpha: Optional[int] = None,
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
    max_lll_rounds: int = 60,
) -> StarForestResult:
    """Theorem 5.4(1): (1+O(ε))α-SFD of a simple graph.

    Colors matched edges via per-vertex H_v matchings with uniformly
    random α-subsets C(v) (Lemma 5.2); vertices whose matching deficit
    exceeds ``⌈2εα⌉`` are resampled (distributed LLL); the unmatched
    leftover is recolored with fresh colors via Theorem 2.1(3).

    Runs the stages ``setup``, ``orient``, ``sample``, ``matchings``,
    ``assemble``, ``leftover_recolor`` and ``finalize``; their records
    land in ``result.stats["passes"]``.
    """
    if not snapshot_of(graph).is_simple():
        raise GraphError("Section 5 star-forest decomposition needs a simple graph")
    counter = ensure_counter(rounds)
    rng = make_rng(seed)
    stats = StarForestStats()
    if graph.m == 0:
        return StarForestResult({}, 0, counter, stats, graph=graph)
    scheduler = Scheduler(counter)
    alpha, t = scheduler.stage("setup", _sf_setup, graph, alpha, epsilon)
    slots = scheduler.stage("orient", _sf_orient, graph, t, stats, counter)
    colors, sample_color_set = scheduler.stage(
        "sample", _sf_sample, graph, alpha, t, rng, counter,
    )
    slot_colors = scheduler.stage(
        "matchings", _sf_matchings, slots, colors, sample_color_set, rng,
        deficit_budget=max(0, math.ceil(2.0 * epsilon * alpha)),
        max_lll_rounds=max_lll_rounds, stats=stats, counter=counter,
    )
    coloring, leftover = scheduler.stage(
        "assemble", _sf_assemble, slots, slot_colors, stats,
    )
    scheduler.stage(
        "leftover_recolor", _sf_leftover_recolor, graph, leftover, coloring,
        counter,
    )
    result = scheduler.stage(
        "finalize", _star_forest_result, coloring, counter, stats, graph,
    )
    stats.passes = scheduler.passes
    return result


def _recolor_leftover_stars(
    graph: MultiGraph,
    leftover: List[int],
    coloring: Dict[int, object],
    counter: RoundCounter,
) -> None:
    """Theorem 2.1(3) on the leftover subgraph, with fresh color names."""
    if not leftover:
        return
    sub = snapshot_of(graph).edge_subgraph(leftover)
    pseudo = max(1, exact_pseudoarboricity(sub))
    partition = h_partition(sub, max(1, math.floor(2.5 * pseudo)), counter)
    star = star_forest_decomposition_via_hpartition(sub, partition, counter)
    for eid, label in star.items():
        coloring[eid] = ("extra", label)


# ----------------------------------------------------------------------
# Theorem 5.4(2): list star-forest decomposition
# ----------------------------------------------------------------------


def _lsf_vertex_matching(
    v: int,
    eids: List[int],
    heads: List[int],
    color_sets: Dict[int, Set[int]],
    palette_sets: Dict[int, Set[int]],
) -> Tuple[Dict[int, int], int]:
    """List-variant ``H_v`` matching of ``C(v)`` onto the out-edges
    ``eids`` (to ``heads``): palette-restricted, no dummies."""
    colors_v = sorted(color_sets[v])
    adjacency = [
        [
            slot
            for slot, (eid, u) in enumerate(zip(eids, heads))
            if color not in color_sets[u] and color in palette_sets[eid]
        ]
        for color in colors_v
    ]
    match_left, _ = hopcroft_karp(adjacency)
    slot_color: Dict[int, int] = {}
    for left_index, slot in match_left.items():
        slot_color[slot] = colors_v[left_index]
    return slot_color, len(eids) - len(slot_color)


def _lsf_sample(
    record: PassStats,
    graph: MultiGraph,
    palettes: Palettes,
    epsilon: float,
    rng,
    counter: RoundCounter,
):
    """Independent ``(1−ε)`` retention of every palette color per
    vertex; returns the sets, the sampler and the palettes as sets."""
    color_space: Set[int] = set()
    for palette in palettes.values():
        color_space.update(palette)
    space = sorted(color_space)
    keep_probability = 1.0 - epsilon

    def sample_color_set(rng_) -> Set[int]:
        return {c for c in space if rng_.random() < keep_probability}

    color_sets = {v: sample_color_set(rng) for v in graph.vertices()}
    counter.charge(1, "C(v) sampling")
    palette_sets = {eid: set(palette) for eid, palette in palettes.items()}
    record.vertices_touched = graph.n
    return color_sets, sample_color_set, palette_sets


def _lsf_matchings(
    record: PassStats,
    graph: MultiGraph,
    slots: _SlotTable,
    color_sets: Dict[int, Set[int]],
    sample_color_set,
    palette_sets: Dict[int, Set[int]],
    rng,
    max_lll_rounds: int,
    stats: StarForestStats,
    counter: RoundCounter,
) -> List[Dict[int, int]]:
    """Per-vertex ``H_v`` matchings (``slot -> color``, in vertex
    order); they must become perfect within ``max_lll_rounds``
    resampling rounds or :class:`ConvergenceError`."""
    vertex_ids = snapshot_of(graph).vertex_ids
    out_degree = np.count_nonzero(slots.heads >= 0, axis=1).tolist()
    out_lists = [
        (v, slots.eids[i, :k].tolist(), vertex_ids[slots.heads[i, :k]].tolist())
        for i, (v, k) in enumerate(zip(graph.vertices(), out_degree))
    ]
    for lll_round in range(max_lll_rounds + 1):
        matchings: List[Dict[int, int]] = []
        deficits: Dict[int, int] = {}
        for v, eids, heads in out_lists:
            slot_color, deficit = _lsf_vertex_matching(
                v, eids, heads, color_sets, palette_sets
            )
            matchings.append(slot_color)
            deficits[v] = deficit
        record.items += len(out_lists)
        counter.charge(1, "H_v matchings")
        bad = [v for v, d in deficits.items() if d > 0]
        if not bad:
            stats.matching_deficits = sorted(deficits.values())
            stats.lll_rounds = lll_round
            return matchings
        for v in bad:
            color_sets[v] = sample_color_set(rng)
        counter.charge(1, "LLL resampling")
    raise ConvergenceError(
        "LSFD matchings did not become perfect; the Lemma 5.3 regime "
        "needs alpha >= Omega(log Delta) and palettes of size "
        "alpha(1 + 200 epsilon)"
    )


def _lsf_finalize(
    record: PassStats,
    graph: MultiGraph,
    slots: _SlotTable,
    matchings: List[Dict[int, int]],
    counter: RoundCounter,
    stats: StarForestStats,
) -> StarForestResult:
    """Matched slots become palette colors (the matchings are perfect:
    every real slot holds one)."""
    coloring: Dict[int, object] = {}
    for eids, slot_color in zip(slots.eids.tolist(), matchings):
        for slot in range(len(slot_color)):
            coloring[eids[slot]] = slot_color[slot]
    record.reconcile_volume = len(coloring)
    return _star_forest_result(record, coloring, counter, stats, graph)


def list_star_forest_decomposition_amr(
    graph: MultiGraph,
    palettes: Palettes,
    epsilon: float,
    alpha: Optional[int] = None,
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
    max_lll_rounds: int = 200,
) -> StarForestResult:
    """Theorem 5.4(2): (1+O(ε))α-LSFD of a simple graph.

    ``C(u)`` keeps each color independently with probability ``1 - ε``
    (Lemma 5.3); success requires *perfect* matchings in every H_v, so
    non-convergence raises :class:`ConvergenceError` (the list variant
    has no leftover to absorb deficits; Lemma 5.3's regime is
    α ≥ Ω(log Δ) with palettes of size α(1+200ε)).

    Runs the stages ``setup``, ``orient``, ``sample``, ``matchings``
    and ``finalize`` (the ordinary variant's shape, without a leftover).
    """
    if not snapshot_of(graph).is_simple():
        raise GraphError("Section 5 star-forest decomposition needs a simple graph")
    counter = ensure_counter(rounds)
    rng = make_rng(seed)
    stats = StarForestStats()
    if graph.m == 0:
        return StarForestResult({}, 0, counter, stats, graph=graph)
    scheduler = Scheduler(counter)
    alpha, t = scheduler.stage("setup", _sf_setup, graph, alpha, epsilon)
    slots = scheduler.stage("orient", _sf_orient, graph, t, stats, counter)
    color_sets, sample_color_set, palette_sets = scheduler.stage(
        "sample", _lsf_sample, graph, palettes, epsilon, rng, counter,
    )
    matchings = scheduler.stage(
        "matchings", _lsf_matchings, graph, slots, color_sets,
        sample_color_set, palette_sets, rng, max_lll_rounds, stats, counter,
    )
    result = scheduler.stage(
        "finalize", _lsf_finalize, graph, slots, matchings, counter, stats,
    )
    stats.passes = scheduler.passes
    return result


# ----------------------------------------------------------------------
# Baselines (Corollary 1.2 context)
# ----------------------------------------------------------------------


def two_coloring_star_forests(
    graph: MultiGraph,
    forest_coloring: Dict[int, int],
    rounds: Optional[RoundCounter] = None,
) -> Dict[int, Tuple[int, int]]:
    """The classical ``αstar ≤ 2α`` construction: split every forest of
    a forest decomposition by the depth parity of the parent endpoint.
    All forests are rooted in one stacked kernel call."""
    counter = ensure_counter(rounds)
    classes = sorted(color_classes(forest_coloring).items())
    snapshot = snapshot_of(graph)
    per_class, _waves = rooted_forest_class_depths(
        snapshot, [snapshot.edge_positions(eids) for _color, eids in classes]
    )
    coloring: Dict[int, Tuple[int, int]] = {}
    for (color, eids), (depth_u, depth_v, _children) in zip(classes, per_class):
        # The parent endpoint is the shallower one.
        parity = np.minimum(depth_u, depth_v) % 2
        for eid, odd in zip(eids, parity.tolist()):
            coloring[eid] = (color, odd)
        counter.charge(
            2 * max(1, int(np.maximum(depth_u, depth_v).max())),
            "depth parity labelling",
        )
    return coloring
