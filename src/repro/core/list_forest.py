"""(1+ε)α list-forest decomposition (Theorem 4.10).

Stages, in order:

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

The Las Vegas loop: an empty reserve palette (:class:`~repro.errors.
ReservePaletteError`) restarts from the split stage with the same RNG
stream, at most :data:`RESERVE_ATTEMPTS` attempts in all.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import DecompositionError, ReservePaletteError
from ..graph.csr import snapshot_of
from ..graph.multigraph import MultiGraph
from ..local.rounds import RoundCounter, ensure_counter
from ..nashwilliams.arboricity import exact_arboricity
from ..nashwilliams.pseudoarboricity import exact_pseudoarboricity
from ..pipeline import PassStats, Scheduler
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


#: Attempts at the split → reserve stages before an empty reserve
#: palette is re-raised (Theorem 4.9 holds only w.h.p.).
RESERVE_ATTEMPTS = 5


def _lf_setup(record: PassStats, graph: MultiGraph, alpha: Optional[int],
              epsilon: float) -> Tuple[int, float]:
    """Resolve α and split the ε budget; returns ``(alpha, ε')``."""
    if alpha is None:
        alpha = exact_arboricity(graph)
    # The paper splits ε very conservatively (ε/1000) so the reserve
    # palettes dominate the leftover's pseudo-arboricity; ε/10 keeps the
    # same inequality direction at practical scales (PaletteError makes
    # any violation loud rather than silent).
    return alpha, epsilon / 10.0


def _lf_split(
    record: PassStats,
    graph: MultiGraph,
    palettes: Palettes,
    epsilon: float,
    splitting: str,
    reserve_probability: Optional[float],
    rng,
    stats: ListForestStats,
    counter: RoundCounter,
) -> VertexColorSplitting:
    with counter.phase("color splitting"):
        split = _make_splitting(
            graph, palettes, epsilon, splitting, reserve_probability, rng,
            counter,
        )
    stats.k0 = split.k0
    stats.k1 = split.k1
    record.vertices_touched = graph.n
    return split


def _lf_algorithm2(
    record: PassStats,
    graph: MultiGraph,
    palettes: Palettes,
    eps_prime: float,
    alpha: int,
    rng,
    stats: ListForestStats,
    counter: RoundCounter,
    cut_rule: str,
    radius: Optional[int],
    search_radius: Optional[int],
) -> Tuple[Dict[int, int], Set[int]]:
    """Algorithm 2 on the main palettes; returns ``(φ0, leftover)``."""
    with counter.phase("algorithm2"):
        result = algorithm2(
            graph,
            palettes,
            eps_prime,
            alpha,
            cut_rule=cut_rule,
            radius=radius,
            search_radius=search_radius,
            seed=child_rng(rng, "alg2"),
            rounds=counter,
        )
    coloring_0 = dict(result.colored)
    stats.algorithm2 = result.stats
    record.reconcile_volume = len(coloring_0)
    return coloring_0, set(result.leftover)


def _lf_diameter_reduce(
    record: PassStats,
    graph: MultiGraph,
    coloring_0: Dict[int, int],
    leftover: Set[int],
    eps_prime: float,
    alpha: int,
    rng,
    stats: ListForestStats,
    counter: RoundCounter,
) -> Dict[int, int]:
    """Depth-cut φ0's deep trees; the deletions join ``leftover``."""
    with counter.phase("diameter reduction"):
        reduction = reduce_diameter(
            graph,
            coloring_0,
            eps_prime,
            alpha,
            mode="auto",
            seed=child_rng(rng, "diam"),
            rounds=counter,
        )
    coloring_0 = dict(reduction.kept)
    leftover.update(reduction.deleted)
    stats.leftover_size = len(leftover)
    record.items = len(set(coloring_0.values()))
    record.reconcile_volume = len(reduction.deleted)
    return coloring_0


def _lf_reserve(
    record: PassStats,
    graph: MultiGraph,
    leftover: Set[int],
    reserve_palettes: Palettes,
    counter: RoundCounter,
) -> Dict[int, int]:
    with counter.phase("reserve LSFD"):
        coloring_1 = _reserve_lsfd(
            graph, sorted(leftover), reserve_palettes, counter,
        )
    record.reconcile_volume = len(coloring_1)
    return coloring_1


def _lf_combine(
    record: PassStats,
    graph: MultiGraph,
    coloring_0: Dict[int, int],
    coloring_1: Dict[int, int],
    counter: RoundCounter,
    stats: ListForestStats,
) -> ListForestDecompositionResult:
    combined = combine_colorings(coloring_0, coloring_1)
    record.reconcile_volume = len(combined)
    return ListForestDecompositionResult(
        combined, counter, stats, graph=graph
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
) -> ListForestDecompositionResult:
    """Theorem 4.10: (1+ε)α-LFD of a multigraph.

    ``palettes`` must give every edge at least ``⌈(1+ε)α⌉`` colors.
    ``splitting`` chooses the Theorem 4.9 variant: ``"cluster"``
    (α ≥ Ω(log n) regime) or ``"independent"`` (ε²α ≥ Ω(log Δ) regime,
    LLL-based).

    Runs the stages ``setup``, ``split``, ``algorithm2``,
    ``diameter_reduce``, ``reserve`` and ``combine``; their records
    (including any Las Vegas retries) land in ``result.stats["passes"]``.
    """
    counter = ensure_counter(rounds)
    rng = make_rng(seed)
    stats = ListForestStats()
    if graph.m == 0:
        return ListForestDecompositionResult({}, counter, stats, graph=graph)
    scheduler = Scheduler(counter)
    alpha, eps_prime = scheduler.stage(
        "setup", _lf_setup, graph, alpha, epsilon,
    )
    for attempt in range(1, RESERVE_ATTEMPTS + 1):
        try:
            split = scheduler.stage(
                "split", _lf_split, graph, palettes, epsilon, splitting,
                reserve_probability, rng, stats, counter,
            )
            coloring_0, leftover = scheduler.stage(
                "algorithm2", _lf_algorithm2, graph, split.palettes_0,
                eps_prime, alpha, rng, stats, counter, cut_rule=cut_rule,
                radius=radius, search_radius=search_radius,
            )
            coloring_0 = scheduler.stage(
                "diameter_reduce", _lf_diameter_reduce, graph, coloring_0,
                leftover, eps_prime, alpha, rng, stats, counter,
            )
            coloring_1 = scheduler.stage(
                "reserve", _lf_reserve, graph, leftover, split.palettes_1,
                counter,
            )
            break
        except ReservePaletteError:
            if attempt == RESERVE_ATTEMPTS:
                raise
            # Theorem 4.9 guarantees nonempty reserve palettes only
            # w.h.p.; a retry (fresh draws from the same parent stream)
            # converts that to Las Vegas.  The first attempt consumes
            # the stream exactly like a retry-free run, so seeds
            # reproduce their historical outputs.
            stats.reserve_retries += 1
    result = scheduler.stage(
        "combine", _lf_combine, graph, coloring_0, coloring_1, counter,
        stats,
    )
    stats.passes = scheduler.passes
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
) -> Dict[int, int]:
    """Color the leftover edges from their reserve palettes via
    Theorem 2.3 (a star forest is in particular a forest)."""
    if not leftover:
        return {}
    sub = snapshot_of(graph).edge_subgraph(leftover)
    pseudo = max(1, exact_pseudoarboricity(sub))
    palettes = {eid: reserve_palettes[eid] for eid in leftover}
    deficient = [eid for eid in leftover if not palettes[eid]]
    if deficient:
        raise ReservePaletteError(
            f"reserve palettes empty for {len(deficient)} leftover edges; "
            "increase palette sizes or epsilon"
        )
    return list_star_forest_decomposition(sub, palettes, pseudo, 0.5, counter)
