"""(1+ε)α list-forest decomposition (Theorem 4.10).

Pipeline (declared as :data:`LIST_FOREST_PIPELINE`):

1. **Split** each edge's palette into ``Q0`` (main) and ``Q1``
   (reserve) with a vertex-color-splitting (Theorem 4.9), so that the
   two phases can be overlaid safely (Proposition 4.8).
2. **Algorithm 2** on ``Q0`` colors the bulk ``E0``; CUT's leftover has
   pseudo-arboricity ``O(ε'α)``.
3. **Diameter reduction** (Proposition 2.4) trims φ0's deep trees,
   producing a second small leftover.
4. **Theorem 2.3 LSFD** recolors all leftover edges from their reserve
   palettes ``Q1`` (stars are forests, so this is a valid LFD part).
5. **Combine** by Proposition 4.8.

A :class:`~repro.pipeline.pipeline.RetryRule` encodes the Las Vegas
loop: an empty reserve palette (:class:`~repro.errors.
ReservePaletteError`) restarts from the split pass with the same RNG
stream, exactly as the historical retry loop did.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import DecompositionError, ReservePaletteError
from ..graph.multigraph import MultiGraph
from ..local.rounds import RoundCounter, ensure_counter
from ..nashwilliams.arboricity import exact_arboricity
from ..nashwilliams.pseudoarboricity import exact_pseudoarboricity
from ..pipeline import Pass, Pipeline, PipelineContext, RetryRule, Scheduler
from ..rng import SeedLike, child_rng, make_rng
from ..decomposition.lsfd import list_star_forest_decomposition
from .algorithm_stats import ListForestStats
from .color_splitting import (
    VertexColorSplitting,
    cluster_correlated_splitting,
    combine_colorings,
    independent_splitting,
)
from .diameter_reduction import reduce_diameter
from .forest_decomposition import algorithm2
from .results import DecompositionResult

Palettes = Dict[int, Sequence[int]]


class ListForestDecompositionResult(DecompositionResult):
    """Final LFD: coloring + accounting.

    Implements the uniform result protocol
    (:class:`~repro.core.results.DecompositionResult`); validates as a
    forest decomposition, plus palette membership at ``level="full"``.
    """

    kind = "forest"

    def __init__(
        self,
        coloring: Dict[int, int],
        rounds: RoundCounter,
        stats: ListForestStats,
        graph: Optional[MultiGraph] = None,
    ) -> None:
        self.coloring = coloring
        self.rounds = rounds
        self.stats = stats
        self.graph = graph


def _lf_setup(ctx: PipelineContext) -> None:
    graph = ctx["graph"]
    ctx["stats"] = ListForestStats()
    ctx["empty"] = graph.m == 0
    if ctx["empty"]:
        return
    if ctx["alpha"] is None:
        ctx["alpha"] = exact_arboricity(graph)
    # The paper splits ε very conservatively (ε/1000) so the reserve
    # palettes dominate the leftover's pseudo-arboricity; ε/10 keeps the
    # same inequality direction at practical scales (PaletteError makes
    # any violation loud rather than silent).
    ctx["eps_prime"] = ctx["epsilon"] / 10.0


def _lf_split(ctx: PipelineContext) -> None:
    if ctx["empty"]:
        return
    counter = ctx.counter
    with counter.phase("color splitting"):
        split = _make_splitting(
            ctx["graph"], ctx["palettes"], ctx["epsilon"],
            ctx["splitting"], ctx["reserve_probability"], ctx["rng"],
            counter,
        )
    ctx["split"] = split
    ctx["stats"].k0 = split.k0
    ctx["stats"].k1 = split.k1
    ctx.note(vertices_touched=ctx["graph"].n)


def _lf_algorithm2(ctx: PipelineContext) -> None:
    if ctx["empty"]:
        return
    counter = ctx.counter
    with counter.phase("algorithm2"):
        result = algorithm2(
            ctx["graph"],
            ctx["split"].palettes_0,
            ctx["eps_prime"],
            ctx["alpha"],
            cut_rule=ctx["cut_rule"],
            radius=ctx["radius"],
            search_radius=ctx["search_radius"],
            seed=child_rng(ctx["rng"], "alg2"),
            rounds=counter,
            backend=ctx["backend"],
        )
    ctx["coloring_0"] = dict(result.colored)
    ctx["leftover"] = set(result.leftover)
    ctx["stats"].algorithm2 = result.stats
    ctx.note(reconcile_volume=len(ctx["coloring_0"]))


def _lf_diameter_reduce(ctx: PipelineContext) -> None:
    if ctx["empty"]:
        return
    counter = ctx.counter
    with counter.phase("diameter reduction"):
        reduction = reduce_diameter(
            ctx["graph"],
            ctx["coloring_0"],
            ctx["eps_prime"],
            ctx["alpha"],
            mode="auto",
            seed=child_rng(ctx["rng"], "diam"),
            rounds=counter,
            backend=ctx["backend"],
        )
    ctx["coloring_0"] = dict(reduction.kept)
    ctx["leftover"].update(reduction.deleted)
    ctx["stats"].leftover_size = len(ctx["leftover"])
    ctx.note(
        items=len(set(ctx["coloring_0"].values())),
        reconcile_volume=len(reduction.deleted),
    )


def _lf_reserve(ctx: PipelineContext) -> None:
    if ctx["empty"]:
        ctx["coloring_1"] = {}
        return
    counter = ctx.counter
    with counter.phase("reserve LSFD"):
        ctx["coloring_1"] = _reserve_lsfd(
            ctx["graph"], sorted(ctx["leftover"]),
            ctx["split"].palettes_1, counter,
            backend=ctx["backend"],
        )
    ctx.note(reconcile_volume=len(ctx["coloring_1"]))


def _lf_combine(ctx: PipelineContext) -> None:
    if ctx["empty"]:
        ctx["result"] = ListForestDecompositionResult(
            {}, ctx.counter, ctx["stats"], graph=ctx["graph"]
        )
        return
    combined = combine_colorings(ctx["coloring_0"], ctx["coloring_1"])
    ctx["result"] = ListForestDecompositionResult(
        combined, ctx.counter, ctx["stats"], graph=ctx["graph"]
    )
    ctx.note(reconcile_volume=len(combined))


def _lf_on_retry(ctx: PipelineContext) -> None:
    # Theorem 4.9 guarantees nonempty reserve palettes only w.h.p.;
    # the retry (fresh draws from the same parent stream) converts
    # that to Las Vegas.  The first attempt consumes the stream
    # exactly like a retry-free run, so seeds reproduce their
    # historical outputs.
    ctx["stats"].reserve_retries += 1


#: Theorem 4.10 as a declared pass list with a Las Vegas retry rule.
LIST_FOREST_PIPELINE = Pipeline(
    "list_forest",
    [
        Pass(
            "setup", _lf_setup,
            writes=("stats", "empty", "alpha", "eps_prime"),
            description="resolve α and split the ε budget (ε' = ε/10)",
        ),
        Pass(
            "split", _lf_split,
            reads=("palettes",), writes=("split", "stats"),
            description="vertex-color-splitting of every palette into "
                        "main Q0 / reserve Q1",
            citation="Theorem 4.9 / Proposition 4.8",
        ),
        Pass(
            "algorithm2", _lf_algorithm2,
            reads=("split", "alpha"),
            writes=("coloring_0", "leftover", "stats"),
            description="Algorithm 2 on the main palettes colors E0",
            citation="Theorem 4.5",
        ),
        Pass(
            "diameter_reduce", _lf_diameter_reduce,
            reads=("coloring_0",),
            writes=("coloring_0", "leftover", "stats"),
            description="depth-cut φ0's deep trees; deletions join the "
                        "leftover",
            citation="Proposition 2.4",
        ),
        Pass(
            "reserve", _lf_reserve,
            reads=("leftover", "split"), writes=("coloring_1",),
            description="LSFD recolors the leftover from the reserve "
                        "palettes",
            citation="Theorem 2.3",
        ),
        Pass(
            "combine", _lf_combine,
            reads=("coloring_0", "coloring_1"), writes=("result",),
            description="overlay the two phases",
            citation="Proposition 4.8",
        ),
    ],
    description="Theorem 4.10: (1+ε)α list-forest decomposition",
    retry=RetryRule(
        exceptions=(ReservePaletteError,),
        from_pass="split",
        max_attempts=5,
        on_retry=_lf_on_retry,
    ),
)


def list_forest_decomposition(
    graph: MultiGraph,
    palettes: Palettes,
    epsilon: float,
    alpha: Optional[int] = None,
    splitting: str = "cluster",
    cut_rule: str = "depth_residue",
    reserve_probability: Optional[float] = None,
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
    radius: Optional[int] = None,
    search_radius: Optional[int] = None,
    backend: str = "auto",
) -> ListForestDecompositionResult:
    """Theorem 4.10: (1+ε)α-LFD of a multigraph.

    ``palettes`` must give every edge at least ``⌈(1+ε)α⌉`` colors.
    ``splitting`` chooses the Theorem 4.9 variant: ``"cluster"``
    (α ≥ Ω(log n) regime) or ``"independent"`` (ε²α ≥ Ω(log Δ) regime,
    LLL-based).

    Executes :data:`LIST_FOREST_PIPELINE`; the executed per-pass
    records (including any Las Vegas retries) land in
    ``result.stats["passes"]``.
    """
    counter = ensure_counter(rounds)
    ctx = PipelineContext(
        counter=counter,
        values={
            "graph": graph,
            "palettes": palettes,
            "epsilon": epsilon,
            "alpha": alpha,
            "splitting": splitting,
            "cut_rule": cut_rule,
            "reserve_probability": reserve_probability,
            "rng": make_rng(seed),
            "radius": radius,
            "search_radius": search_radius,
            "backend": backend,
        },
    )
    result = Scheduler().run(LIST_FOREST_PIPELINE, ctx)
    result.stats.passes = ctx.pass_stats
    return result


def _make_splitting(
    graph: MultiGraph,
    palettes: Palettes,
    epsilon: float,
    mode: str,
    reserve_probability: Optional[float],
    rng,
    counter: RoundCounter,
) -> VertexColorSplitting:
    if mode == "cluster":
        return cluster_correlated_splitting(
            graph, palettes, epsilon, seed=child_rng(rng, "split"), rounds=counter
        )
    if mode == "independent":
        return independent_splitting(
            graph,
            palettes,
            epsilon,
            reserve_probability=reserve_probability,
            seed=child_rng(rng, "split"),
            rounds=counter,
        )
    raise DecompositionError(f"unknown splitting mode {mode!r}")


def _reserve_lsfd(
    graph: MultiGraph,
    leftover: List[int],
    reserve_palettes: Palettes,
    counter: RoundCounter,
    backend: str = "csr",
) -> Dict[int, int]:
    """Color the leftover edges from their reserve palettes via
    Theorem 2.3 (a star forest is in particular a forest)."""
    if not leftover:
        return {}
    sub = graph.edge_subgraph(leftover)
    pseudo = max(1, exact_pseudoarboricity(sub))
    palettes = {eid: reserve_palettes[eid] for eid in leftover}
    deficient = [eid for eid in leftover if not palettes[eid]]
    if deficient:
        raise ReservePaletteError(
            f"reserve palettes empty for {len(deficient)} leftover edges; "
            "increase palette sizes or epsilon"
        )
    return list_star_forest_decomposition(
        sub, palettes, pseudo, 0.5, counter, backend=backend,
    )
