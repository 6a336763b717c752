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

Both variants are declared pass lists (:data:`STAR_FOREST_PIPELINE`,
:data:`LIST_STAR_FOREST_PIPELINE`).  The per-vertex ``H_v`` matchings
are the natural fan-out unit: each LLL round maps the independent
matchings through ``ctx.fan_out`` (the color-set draws stay in the
single RNG stream, and matchings consume no randomness).

Baselines for Corollary 1.2 are also here:
:func:`two_coloring_star_forests` (the classical ``αstar ≤ 2α``) and
the H-partition ``3t``-SFD re-export.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ConvergenceError, DecompositionError, GraphError
from ..graph.forests import RootedForest, color_classes
from ..graph.matching import hopcroft_karp
from ..graph.multigraph import MultiGraph
from ..local.rounds import RoundCounter, ensure_counter
from ..nashwilliams.arboricity import exact_arboricity
from ..nashwilliams.pseudoarboricity import (
    exact_pseudoarboricity,
    orientation_exists,
)
from ..pipeline import Pass, Pipeline, PipelineContext, Scheduler
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
    exact flow witness and charge the cited O~(log² n / ε²) rounds.
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
    to ``t``.  Pure per-vertex work — no shared-state mutation and no
    RNG draws — so the LLL round can fan these out concurrently.
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
# Theorem 5.4(1): ordinary star-forest decomposition, as a pass list
# ----------------------------------------------------------------------


def _sf_setup(ctx: PipelineContext) -> None:
    graph = ctx["graph"]
    ctx["stats"] = StarForestStats()
    ctx["empty"] = graph.m == 0
    if ctx["empty"]:
        return
    alpha = ctx["alpha"]
    if alpha is None:
        alpha = exact_arboricity(graph)
    ctx["alpha"] = max(alpha, 1)
    ctx["t"] = max(1, math.ceil((1.0 + ctx["epsilon"]) * ctx["alpha"]))


def _sf_orient(ctx: PipelineContext) -> None:
    if ctx["empty"]:
        return
    graph = ctx["graph"]
    orientation = _t_orientation(graph, ctx["t"], ctx.counter)
    ctx["stats"].orientation_bound = ctx["t"]
    out_edges: Dict[int, List[int]] = {v: [] for v in graph.vertices()}
    for eid, tail in orientation.items():
        out_edges[tail].append(eid)
    ctx["out_edges"] = out_edges
    ctx.note(reconcile_volume=len(orientation))


def _sf_sample(ctx: PipelineContext) -> None:
    if ctx["empty"]:
        return
    graph = ctx["graph"]
    t = ctx["t"]
    alpha = ctx["alpha"]
    color_space = list(range(t))
    ctx["deficit_budget"] = max(0, math.ceil(2.0 * ctx["epsilon"] * alpha))

    def sample_color_set(rng_) -> Set[int]:
        return set(rng_.sample(color_space, min(alpha, t)))

    ctx["sample_color_set"] = sample_color_set
    ctx["color_sets"] = {
        v: sample_color_set(ctx["rng"]) for v in graph.vertices()
    }
    ctx.counter.charge(1, "C(v) sampling")
    ctx.note(vertices_touched=graph.n)


def _sf_matchings(ctx: PipelineContext) -> None:
    if ctx["empty"]:
        return
    graph = ctx["graph"]
    counter = ctx.counter
    stats = ctx["stats"]
    out_edges = ctx["out_edges"]
    t = ctx["t"]
    color_sets = ctx["color_sets"]
    deficit_budget = ctx["deficit_budget"]
    max_lll_rounds = ctx["max_lll_rounds"]
    verts = list(graph.vertices())
    matchings: Dict[int, Dict[int, int]] = {}
    lll_round = 0
    while True:
        results = ctx.fan_out(
            [
                (lambda v=v: _sf_vertex_matching(
                    graph, v, out_edges, t, color_sets
                ))
                for v in verts
            ]
        )
        deficits: Dict[int, int] = {}
        for v, (slot_color, deficit, dummies) in zip(verts, results):
            matchings[v] = slot_color
            deficits[v] = deficit
            stats.dummy_slots += dummies
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
            color_sets[v] = ctx["sample_color_set"](ctx["rng"])
        counter.charge(1, "LLL resampling")
    ctx["matchings"] = matchings


def _sf_assemble(ctx: PipelineContext) -> None:
    if ctx["empty"]:
        return
    graph = ctx["graph"]
    out_edges = ctx["out_edges"]
    matchings = ctx["matchings"]
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
    ctx["coloring"] = coloring
    ctx["leftover"] = leftover
    ctx["stats"].leftover_size = len(leftover)
    ctx.note(reconcile_volume=len(coloring) + len(leftover))


def _sf_leftover_recolor(ctx: PipelineContext) -> None:
    if ctx["empty"]:
        return
    counter = ctx.counter
    with counter.phase("leftover recoloring"):
        _recolor_leftover_stars(
            ctx["graph"], ctx["leftover"], ctx["coloring"], counter,
        )
    ctx.note(reconcile_volume=len(ctx["leftover"]))


def _sf_finalize(ctx: PipelineContext) -> None:
    if ctx["empty"]:
        ctx["result"] = StarForestResult(
            {}, 0, ctx.counter, ctx["stats"], graph=ctx["graph"]
        )
        return
    coloring = ctx["coloring"]
    colors_used = len(set(coloring.values()))
    ctx["result"] = StarForestResult(
        coloring, colors_used, ctx.counter, ctx["stats"],
        graph=ctx["graph"],
    )


#: Theorem 5.4(1) as a declared pass list.
STAR_FOREST_PIPELINE = Pipeline(
    "star_forest",
    [
        Pass(
            "setup", _sf_setup,
            writes=("stats", "empty", "alpha", "t"),
            description="resolve α and the t = ⌈(1+ε)α⌉ budget",
        ),
        Pass(
            "orient", _sf_orient,
            reads=("t",), writes=("out_edges", "stats"),
            description="exact t-orientation ([SV19a] substitute)",
            citation="Theorem 5.4 setup",
        ),
        Pass(
            "sample", _sf_sample,
            writes=("color_sets", "deficit_budget", "sample_color_set"),
            description="uniform random α-subsets C(v)",
            citation="Lemma 5.2",
        ),
        Pass(
            "matchings", _sf_matchings,
            reads=("out_edges", "color_sets"), writes=("matchings",),
            description="per-vertex H_v matchings (fan-out unit), "
                        "LLL-resampling vertices whose deficit exceeds "
                        "⌈2εα⌉",
            citation="Lemma 5.2 (distributed LLL)",
        ),
        Pass(
            "assemble", _sf_assemble,
            reads=("matchings", "out_edges"),
            writes=("coloring", "leftover", "stats"),
            description="matched slots become ('amr', i) colors; "
                        "unmatched edges join the leftover",
        ),
        Pass(
            "leftover_recolor", _sf_leftover_recolor,
            reads=("leftover",), writes=("coloring",),
            description="Theorem 2.1(3) recoloring of the leftover "
                        "with fresh ('extra', ...) colors",
            citation="Proposition 5.1 / Theorem 2.1(3)",
        ),
        Pass(
            "finalize", _sf_finalize,
            reads=("coloring",), writes=("result",),
            description="assemble the StarForestResult",
        ),
    ],
    description="Theorem 5.4(1): (1+O(ε))α star-forest decomposition",
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

    Executes :data:`STAR_FOREST_PIPELINE`; the executed per-pass
    records land in ``result.stats["passes"]``.
    """
    if not graph.is_simple():
        raise GraphError("Section 5 star-forest decomposition needs a simple graph")
    counter = ensure_counter(rounds)
    ctx = PipelineContext(
        counter=counter,
        values={
            "graph": graph,
            "epsilon": epsilon,
            "alpha": alpha,
            "rng": make_rng(seed),
            "max_lll_rounds": max_lll_rounds,
        },
    )
    result = Scheduler().run(STAR_FOREST_PIPELINE, ctx)
    result.stats.passes = ctx.pass_stats
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
    sub = graph.edge_subgraph(leftover)
    pseudo = max(1, exact_pseudoarboricity(sub))
    partition = h_partition(sub, max(1, math.floor(2.5 * pseudo)), counter)
    star = star_forest_decomposition_via_hpartition(sub, partition, counter)
    for eid, label in star.items():
        coloring[eid] = ("extra", label)


# ----------------------------------------------------------------------
# Theorem 5.4(2): list star-forest decomposition, as a pass list
# ----------------------------------------------------------------------


def _lsf_vertex_matching(
    graph: MultiGraph,
    v: int,
    out_edges: Dict[int, List[int]],
    color_sets: Dict[int, Set[int]],
    palette_sets: Dict[int, Set[int]],
) -> Tuple[Dict[int, int], int]:
    """List-variant H_v matching (palette-restricted, no dummies);
    pure per-vertex work, fanned out per LLL round."""
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


def _lsf_setup(ctx: PipelineContext) -> None:
    graph = ctx["graph"]
    ctx["stats"] = StarForestStats()
    ctx["empty"] = graph.m == 0
    if ctx["empty"]:
        return
    alpha = ctx["alpha"]
    if alpha is None:
        alpha = exact_arboricity(graph)
    ctx["alpha"] = max(alpha, 1)
    ctx["t"] = max(1, math.ceil((1.0 + ctx["epsilon"]) * ctx["alpha"]))


def _lsf_sample(ctx: PipelineContext) -> None:
    if ctx["empty"]:
        return
    graph = ctx["graph"]
    palettes = ctx["palettes"]
    color_space: Set[int] = set()
    for palette in palettes.values():
        color_space.update(palette)
    space = sorted(color_space)
    keep_probability = 1.0 - ctx["epsilon"]

    def sample_color_set(rng_) -> Set[int]:
        return {c for c in space if rng_.random() < keep_probability}

    ctx["sample_color_set"] = sample_color_set
    ctx["color_sets"] = {
        v: sample_color_set(ctx["rng"]) for v in graph.vertices()
    }
    ctx.counter.charge(1, "C(v) sampling")
    ctx["palette_sets"] = {
        eid: set(palette) for eid, palette in palettes.items()
    }
    ctx.note(vertices_touched=graph.n)


def _lsf_matchings(ctx: PipelineContext) -> None:
    if ctx["empty"]:
        return
    graph = ctx["graph"]
    counter = ctx.counter
    stats = ctx["stats"]
    out_edges = ctx["out_edges"]
    color_sets = ctx["color_sets"]
    palette_sets = ctx["palette_sets"]
    max_lll_rounds = ctx["max_lll_rounds"]
    verts = list(graph.vertices())
    matchings: Dict[int, Dict[int, int]] = {}
    for lll_round in range(max_lll_rounds + 1):
        results = ctx.fan_out(
            [
                (lambda v=v: _lsf_vertex_matching(
                    graph, v, out_edges, color_sets, palette_sets
                ))
                for v in verts
            ]
        )
        deficits: Dict[int, int] = {}
        for v, (slot_color, deficit) in zip(verts, results):
            matchings[v] = slot_color
            deficits[v] = deficit
        counter.charge(1, "H_v matchings")
        bad = [v for v, d in deficits.items() if d > 0]
        if not bad:
            stats.matching_deficits = sorted(deficits.values())
            stats.lll_rounds = lll_round
            break
        for v in bad:
            color_sets[v] = ctx["sample_color_set"](ctx["rng"])
        counter.charge(1, "LLL resampling")
    else:
        raise ConvergenceError(
            "LSFD matchings did not become perfect; the Lemma 5.3 regime "
            "needs alpha >= Omega(log Delta) and palettes of size "
            "alpha(1 + 200 epsilon)"
        )
    ctx["matchings"] = matchings


def _lsf_finalize(ctx: PipelineContext) -> None:
    if ctx["empty"]:
        ctx["result"] = StarForestResult(
            {}, 0, ctx.counter, ctx["stats"], graph=ctx["graph"]
        )
        return
    graph = ctx["graph"]
    out_edges = ctx["out_edges"]
    matchings = ctx["matchings"]
    coloring: Dict[int, object] = {}
    for v in graph.vertices():
        ordered = sorted(out_edges[v])
        slot_color = matchings[v]
        for slot, eid in enumerate(ordered):
            coloring[eid] = slot_color[slot]
    colors_used = len(set(coloring.values()))
    ctx["result"] = StarForestResult(
        coloring, colors_used, ctx.counter, ctx["stats"],
        graph=ctx["graph"],
    )
    ctx.note(reconcile_volume=len(coloring))


#: Theorem 5.4(2) as a declared pass list (shares the orient pass shape
#: with the ordinary variant; matchings must be perfect, so there is no
#: leftover stage).
LIST_STAR_FOREST_PIPELINE = Pipeline(
    "list_star_forest",
    [
        Pass(
            "setup", _lsf_setup,
            writes=("stats", "empty", "alpha", "t"),
            description="resolve α and the t = ⌈(1+ε)α⌉ budget",
        ),
        Pass(
            "orient", _sf_orient,
            reads=("t",), writes=("out_edges", "stats"),
            description="exact t-orientation ([SV19a] substitute)",
            citation="Theorem 5.4 setup",
        ),
        Pass(
            "sample", _lsf_sample,
            reads=("palettes",),
            writes=("color_sets", "palette_sets", "sample_color_set"),
            description="independent (1−ε) color retention per vertex",
            citation="Lemma 5.3",
        ),
        Pass(
            "matchings", _lsf_matchings,
            reads=("out_edges", "color_sets", "palette_sets"),
            writes=("matchings",),
            description="per-vertex H_v matchings (fan-out unit); "
                        "must become perfect or ConvergenceError",
            citation="Lemma 5.3 (distributed LLL)",
        ),
        Pass(
            "finalize", _lsf_finalize,
            reads=("matchings", "out_edges"), writes=("result",),
            description="matched slots become palette colors",
        ),
    ],
    description="Theorem 5.4(2): (1+O(ε))α list star-forest "
                "decomposition",
)


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

    Executes :data:`LIST_STAR_FOREST_PIPELINE`.
    """
    if not graph.is_simple():
        raise GraphError("Section 5 star-forest decomposition needs a simple graph")
    counter = ensure_counter(rounds)
    ctx = PipelineContext(
        counter=counter,
        values={
            "graph": graph,
            "palettes": palettes,
            "epsilon": epsilon,
            "alpha": alpha,
            "rng": make_rng(seed),
            "max_lll_rounds": max_lll_rounds,
        },
    )
    result = Scheduler().run(LIST_STAR_FOREST_PIPELINE, ctx)
    result.stats.passes = ctx.pass_stats
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
    a forest decomposition by the depth parity of the parent endpoint."""
    counter = ensure_counter(rounds)
    coloring: Dict[int, Tuple[int, int]] = {}
    for color, eids in sorted(color_classes(forest_coloring).items()):
        forest = RootedForest(graph, eids)
        even, odd = forest.depth_parity_split()
        for eid in even:
            coloring[eid] = (color, 0)
        for eid in odd:
            coloring[eid] = (color, 1)
        counter.charge(
            2 * max(1, forest.max_depth()), "depth parity labelling"
        )
    return coloring
