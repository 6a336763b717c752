"""⌊(4+ε)α* − 1⌋-list-star-forest decomposition (Theorem 2.3).

The combinatorial core is Theorem 2.2: with an acyclic d-orientation,
coloring edges "backward" so that each edge's color differs from the
colors of all out-edges of both its endpoints yields a star-forest
decomposition from palettes of size 2d.  The constructive version
(Appendix A) replaces the exact degeneracy orientation with the
H-partition's acyclic t-orientation, t = ⌊(2+ε/10)α*⌋, and colors the
batches ``E_k, ..., E_1`` (edges grouped by the H-class of their tail).

Batch-internal conflicts are resolved by simulating the third algorithm
of Appendix A: clusters of a network decomposition of G³ color their
edges sequentially; here we execute the same sequential process
centrally and charge the O(log³ n / ε) rounds the paper derives.

Correctness invariant (checked by the validator): in the final
coloring, every edge's color differs from the color of every out-edge
of both endpoints.  Any length-3 monochromatic path needs two
consecutive in-edges at both of its internal vertices, which is
impossible, so each color class is a star forest.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import PaletteError
from ..graph.csr import CSRGraph, resolve_backend
from ..graph.multigraph import MultiGraph
from ..local.rounds import RoundCounter, ensure_counter
from .hpartition import (
    HPartition,
    acyclic_orientation,
    h_partition,
    out_edges_by_vertex,
)


def lsfd_palette_requirement(pseudoarboricity: int, epsilon: float) -> int:
    """Palette size ⌊(4+ε)α* − 1⌋ needed by Theorem 2.3."""
    return int(math.floor((4.0 + epsilon) * pseudoarboricity - 1.0))


def list_star_forest_decomposition(
    graph: MultiGraph,
    palettes: Dict[int, Sequence[int]],
    pseudoarboricity: int,
    epsilon: float = 0.5,
    rounds: Optional[RoundCounter] = None,
    backend: str = "csr",
    workers: int = 0,
) -> Dict[int, int]:
    """Compute a list-star-forest decomposition (Theorem 2.3).

    Parameters
    ----------
    palettes:
        Per-edge color lists; sizes of at least
        ``⌊(4+ε)α* − 1⌋`` guarantee success.
    pseudoarboricity:
        (An upper bound on) α*(G), used for the H-partition threshold.
    epsilon:
        The ε of the theorem.
    backend, workers:
        Peeling substrate for the H-partition phase (``"csr"``,
        ``"sharded"`` or ``"parallel"`` — the latter two peel on the
        wave engine at scale; ``"auto"``/``"dict"`` resolve to the kernel — the batch
        coloring itself is dict-based either way).

    Returns edge id -> chosen color.  Raises :class:`PaletteError` if
    some palette is exhausted (possible only when the size requirement
    is violated).
    """
    counter = ensure_counter(rounds)
    if graph.m == 0:
        return {}

    peel = resolve_backend(graph, backend, PaletteError, peeling=True)
    if peel == "dict":
        peel = "csr"
    threshold = max(1, int(math.floor((2.0 + epsilon / 10.0) * pseudoarboricity)))
    with counter.phase("h-partition"):
        snapshot = CSRGraph.from_multigraph(graph)
        partition = h_partition(
            graph, threshold, counter, snapshot=snapshot,
            backend=peel, workers=workers,
        )
        orientation = acyclic_orientation(
            graph, partition, counter, snapshot=snapshot
        )

    out_by_vertex = out_edges_by_vertex(graph, orientation)
    classes = partition.classes

    # Batch of an edge = H-class of its tail (the lower-class endpoint).
    batch_of: Dict[int, int] = {
        eid: classes[tail] for eid, tail in orientation.items()
    }
    batches: Dict[int, List[int]] = {}
    for eid, batch in batch_of.items():
        batches.setdefault(batch, []).append(eid)

    coloring: Dict[int, int] = {}

    def forbidden_colors(eid: int) -> Set[int]:
        """Colors of already-colored out-edges of either endpoint."""
        u, v = graph.endpoints(eid)
        taken: Set[int] = set()
        for endpoint in (u, v):
            for out_eid in out_by_vertex[endpoint]:
                if out_eid != eid and out_eid in coloring:
                    taken.add(coloring[out_eid])
        return taken

    # Color batches E_k, ..., E_1, and within a batch by decreasing tail
    # id — overall, reverse topological order of tails ("backward in the
    # orientation", as in Theorem 2.2).  This guarantees that when an
    # edge u->v is colored, all out-edges of v (and the already-colored
    # out-edges of u) are visible in its forbidden set, which is exactly
    # the star invariant.  The paper's cluster-sequential simulation
    # achieves the same order cluster-locally; we charge its rounds.
    with counter.phase("batch coloring"):
        for batch in sorted(batches.keys(), reverse=True):
            ordered = sorted(
                batches[batch], key=lambda eid: (-orientation[eid], eid)
            )
            for eid in ordered:
                taken = forbidden_colors(eid)
                chosen = None
                for color in palettes[eid]:
                    if color not in taken:
                        chosen = color
                        break
                if chosen is None:
                    raise PaletteError(
                        f"edge {eid}: palette of size {len(palettes[eid])} "
                        f"exhausted ({len(taken)} colors forbidden); "
                        f"Theorem 2.3 requires at least "
                        f"{lsfd_palette_requirement(pseudoarboricity, epsilon)}"
                    )
                coloring[eid] = chosen
            # One simulated network-decomposition sweep per batch.
            log_n = max(1, math.ceil(math.log2(graph.n + 1)))
            counter.charge(log_n * log_n, "cluster-sequential coloring")

    return coloring


def validate_star_invariant(
    graph: MultiGraph,
    orientation: Dict[int, int],
    coloring: Dict[int, int],
) -> bool:
    """True iff each edge's color differs from every out-edge color of
    both endpoints — the invariant behind Theorem 2.2."""
    out_by_vertex = out_edges_by_vertex(graph, orientation)
    for eid, color in coloring.items():
        u, v = graph.endpoints(eid)
        for endpoint in (u, v):
            for other in out_by_vertex[endpoint]:
                if other != eid and coloring.get(other) == color:
                    return False
    return True
