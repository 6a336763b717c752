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
for the ordinary variant, then ``finalize``).  Each LLL round solves
the per-vertex ``H_v`` matchings in vertex order; the color-set draws
stay in the single RNG stream, and matchings consume no randomness.

Baselines for Corollary 1.2 are also here:
:func:`two_coloring_star_forests` (the classical ``αstar ≤ 2α``) and
the H-partition ``3t``-SFD re-export.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ConvergenceError, DecompositionError, GraphError
from ..graph.csr import rooted_forest_class_depths, snapshot_of
from ..graph.forests import color_classes
from ..graph.matching import hopcroft_karp
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


def _build_hv_adjacency(
    colors_v: Sequence[int],
    out_neighbors: Sequence[Optional[int]],
    color_sets: Dict[int, Set[int]],
    palette_for: Optional[Dict[int, Set[int]]],
) -> List[List[int]]:
    """Left-adjacency of H_v: for each color index, the right slots.

    ``out_neighbors`` contains vertex ids and ``None`` dummy slots
    (dummies accept every color — they pad A(v) to exactly t, as in the
    paper's setup).  ``palette_for[u]`` restricts colors allowed on the
    edge to u (list variant); None means unrestricted.
    """
    adjacency: List[List[int]] = []
    for color in colors_v:
        row: List[int] = []
        for slot, u in enumerate(out_neighbors):
            if u is None:
                row.append(slot)
                continue
            if color in color_sets[u]:
                continue
            if palette_for is not None and color not in palette_for[u]:
                continue
            row.append(slot)
        adjacency.append(row)
    return adjacency


def _sf_vertex_matching(
    graph: MultiGraph,
    v: int,
    out_edges: Dict[int, List[int]],
    t: int,
    color_sets: Dict[int, Set[int]],
) -> Tuple[Dict[int, int], int, int]:
    """Match colors to out-edge slots; returns
    ``(slot -> color, deficit, dummy slots)``.

    Slots are indices into ``sorted(out_edges[v])`` plus dummy padding
    to ``t``.  Pure per-vertex work: no shared-state mutation and no
    RNG draws.
    """
    slots: List[Optional[int]] = []
    for eid in sorted(out_edges[v]):
        slots.append(graph.other_endpoint(eid, v))
    dummies = t - len(slots)
    slots.extend([None] * dummies)
    colors_v = sorted(color_sets[v])
    adjacency = _build_hv_adjacency(colors_v, slots, color_sets, None)
    match_left, _ = hopcroft_karp(adjacency)
    slot_color: Dict[int, int] = {}
    for left_index, slot in match_left.items():
        slot_color[slot] = colors_v[left_index]
    real = len(out_edges[v])
    matched_real = sum(1 for slot in slot_color if slot < real)
    return slot_color, real - matched_real, dummies


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
               counter: RoundCounter) -> Dict[int, List[int]]:
    """Each vertex's out-edges under a ``t``-orientation."""
    orientation = _t_orientation(graph, t, counter)
    stats.orientation_bound = t
    out_edges: Dict[int, List[int]] = {v: [] for v in graph.vertices()}
    for eid, tail in orientation.items():
        out_edges[tail].append(eid)
    record.reconcile_volume = len(orientation)
    return out_edges


def _sf_sample(record: PassStats, graph: MultiGraph, alpha: int, t: int,
               rng, counter: RoundCounter):
    """Uniform random α-subsets ``C(v)`` of the ``t`` colors; returns
    the sets and the sampler the LLL resamples with."""
    color_space = list(range(t))

    def sample_color_set(rng_) -> Set[int]:
        return set(rng_.sample(color_space, min(alpha, t)))

    color_sets = {v: sample_color_set(rng) for v in graph.vertices()}
    counter.charge(1, "C(v) sampling")
    record.vertices_touched = graph.n
    return color_sets, sample_color_set


def _sf_matchings(
    record: PassStats,
    graph: MultiGraph,
    out_edges: Dict[int, List[int]],
    t: int,
    color_sets: Dict[int, Set[int]],
    sample_color_set,
    rng,
    deficit_budget: int,
    max_lll_rounds: int,
    stats: StarForestStats,
    counter: RoundCounter,
) -> Dict[int, Dict[int, int]]:
    """Per-vertex ``H_v`` matchings, LLL-resampling the vertices whose
    deficit exceeds ``deficit_budget``."""
    verts = list(graph.vertices())
    matchings: Dict[int, Dict[int, int]] = {}
    lll_round = 0
    while True:
        deficits: Dict[int, int] = {}
        for v in verts:
            slot_color, deficit, dummies = _sf_vertex_matching(
                graph, v, out_edges, t, color_sets
            )
            matchings[v] = slot_color
            deficits[v] = deficit
            stats.dummy_slots += dummies
        record.items += len(verts)
        counter.charge(1, "H_v matchings")
        bad = [v for v, d in deficits.items() if d > deficit_budget]
        if not bad:
            stats.matching_deficits = sorted(deficits.values())
            break
        lll_round += 1
        stats.lll_rounds = lll_round
        if lll_round > max_lll_rounds:
            # Accept the current sets; excess deficit flows into the
            # leftover, which is recolored anyway — the output stays a
            # valid SFD, only the color count degrades (reported).
            stats.matching_deficits = sorted(deficits.values())
            break
        for v in bad:
            color_sets[v] = sample_color_set(rng)
        counter.charge(1, "LLL resampling")
    return matchings


def _sf_assemble(
    record: PassStats,
    graph: MultiGraph,
    out_edges: Dict[int, List[int]],
    matchings: Dict[int, Dict[int, int]],
    stats: StarForestStats,
) -> Tuple[Dict[int, object], List[int]]:
    """Matched slots become ``("amr", i)`` colors; unmatched edges
    form the leftover."""
    coloring: Dict[int, object] = {}
    leftover: List[int] = []
    for v in graph.vertices():
        ordered = sorted(out_edges[v])
        slot_color = matchings[v]
        for slot, eid in enumerate(ordered):
            if slot in slot_color:
                coloring[eid] = ("amr", slot_color[slot])
            else:
                leftover.append(eid)
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
    out_edges = scheduler.stage("orient", _sf_orient, graph, t, stats, counter)
    color_sets, sample_color_set = scheduler.stage(
        "sample", _sf_sample, graph, alpha, t, rng, counter,
    )
    matchings = scheduler.stage(
        "matchings", _sf_matchings, graph, out_edges, t, color_sets,
        sample_color_set, rng,
        deficit_budget=max(0, math.ceil(2.0 * epsilon * alpha)),
        max_lll_rounds=max_lll_rounds, stats=stats, counter=counter,
    )
    coloring, leftover = scheduler.stage(
        "assemble", _sf_assemble, graph, out_edges, matchings, stats,
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
    graph: MultiGraph,
    v: int,
    out_edges: Dict[int, List[int]],
    color_sets: Dict[int, Set[int]],
    palette_sets: Dict[int, Set[int]],
) -> Tuple[Dict[int, int], int]:
    """List-variant H_v matching (palette-restricted, no dummies)."""
    ordered = sorted(out_edges[v])
    slots: List[Optional[int]] = [
        graph.other_endpoint(eid, v) for eid in ordered
    ]
    palette_for = {
        graph.other_endpoint(eid, v): palette_sets[eid] for eid in ordered
    }
    colors_v = sorted(color_sets[v])
    adjacency = _build_hv_adjacency(colors_v, slots, color_sets, palette_for)
    match_left, _ = hopcroft_karp(adjacency)
    slot_color: Dict[int, int] = {}
    for left_index, slot in match_left.items():
        slot_color[slot] = colors_v[left_index]
    return slot_color, len(ordered) - len(slot_color)


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
    out_edges: Dict[int, List[int]],
    color_sets: Dict[int, Set[int]],
    sample_color_set,
    palette_sets: Dict[int, Set[int]],
    rng,
    max_lll_rounds: int,
    stats: StarForestStats,
    counter: RoundCounter,
) -> Dict[int, Dict[int, int]]:
    """Per-vertex ``H_v`` matchings; they must become perfect within
    ``max_lll_rounds`` resampling rounds or :class:`ConvergenceError`."""
    verts = list(graph.vertices())
    matchings: Dict[int, Dict[int, int]] = {}
    for lll_round in range(max_lll_rounds + 1):
        deficits: Dict[int, int] = {}
        for v in verts:
            slot_color, deficit = _lsf_vertex_matching(
                graph, v, out_edges, color_sets, palette_sets
            )
            matchings[v] = slot_color
            deficits[v] = deficit
        record.items += len(verts)
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
    out_edges: Dict[int, List[int]],
    matchings: Dict[int, Dict[int, int]],
    counter: RoundCounter,
    stats: StarForestStats,
) -> StarForestResult:
    """Matched slots become palette colors."""
    coloring: Dict[int, object] = {}
    for v in graph.vertices():
        ordered = sorted(out_edges[v])
        slot_color = matchings[v]
        for slot, eid in enumerate(ordered):
            coloring[eid] = slot_color[slot]
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
    out_edges = scheduler.stage("orient", _sf_orient, graph, t, stats, counter)
    color_sets, sample_color_set, palette_sets = scheduler.stage(
        "sample", _lsf_sample, graph, palettes, epsilon, rng, counter,
    )
    matchings = scheduler.stage(
        "matchings", _lsf_matchings, graph, out_edges, color_sets,
        sample_color_set, palette_sets, rng, max_lll_rounds, stats, counter,
    )
    result = scheduler.stage(
        "finalize", _lsf_finalize, graph, out_edges, matchings, counter,
        stats,
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
