"""Reference depth cut: every color class rooted by
:class:`~repro.graph.forests.RootedForest`."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.diameter_reduction import DiameterReductionResult
from repro.errors import DecompositionError
from repro.graph.forests import RootedForest, color_classes
from repro.graph.multigraph import MultiGraph
from repro.local.rounds import RoundCounter, ensure_counter
from repro.rng import SeedLike, make_rng


def depth_cut(
    graph: MultiGraph,
    coloring: Dict[int, int],
    z: int,
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
) -> DiameterReductionResult:
    """Cut every color forest at a random depth residue mod ``z``: one
    residue per color class, drawn in sorted color order."""
    if z < 1:
        raise DecompositionError(f"z must be >= 1, got {z}")
    counter = ensure_counter(rounds)
    rng = make_rng(seed)
    kept: Dict[int, int] = {}
    deleted: List[int] = []
    deletion_tail: Dict[int, int] = {}
    for color, eids in sorted(color_classes(coloring).items()):
        forest = RootedForest(graph, eids)
        residue = rng.randrange(z)
        cut_edges = set(forest.edges_at_depth_residue(residue, z))
        for eid in eids:
            if eid in cut_edges:
                u, v = graph.endpoints(eid)
                child = u if forest.depth[u] > forest.depth[v] else v
                deleted.append(eid)
                deletion_tail[eid] = child
            else:
                kept[eid] = color
    counter.charge(2 * z, "depth-cut diameter reduction")
    return DiameterReductionResult(kept, deleted, deletion_tail, 2 * (z - 1))
