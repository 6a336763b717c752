"""Exact list-forest decomposition by backtracking (tiny graphs).

Seymour [Sey98] proved that α(G)-list-forest decompositions exist for
*any* palettes of size α — the combinatorial fact that makes the
paper's (1+ε)α-LFD targets sensible.  This module provides a
backtracking solver used as ground truth: benches and property tests
verify Seymour's theorem empirically on random tiny instances, and use
it to check that the augmentation framework never reports failure when
a decomposition exists.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..errors import GraphError
from ..graph.multigraph import MultiGraph
from ..graph.union_find import RollbackUnionFind

Palettes = Dict[int, Sequence[int]]


def exact_list_forest_decomposition(
    graph: MultiGraph,
    palettes: Palettes,
    max_edges: int = 24,
) -> Optional[Dict[int, int]]:
    """A full list-forest coloring respecting ``palettes``, or None.

    Exponential-time backtracking with per-color union-find rollback;
    refuses instances above ``max_edges`` edges.  Edges are tried in a
    most-constrained-first order (smallest palette first).
    """
    if graph.m > max_edges:
        raise GraphError(
            f"exact list-FD limited to m <= {max_edges}, got {graph.m}"
        )
    order = sorted(graph.edge_ids(), key=lambda e: (len(palettes[e]), e))
    forests: Dict[int, RollbackUnionFind] = {}
    assignment: Dict[int, int] = {}

    def backtrack(index: int) -> bool:
        if index == len(order):
            return True
        eid = order[index]
        u, v = graph.endpoints(eid)
        for color in palettes[eid]:
            forest = forests.setdefault(color, RollbackUnionFind())
            if forest.connected(u, v):
                continue
            mark = forest.checkpoint()
            forest.union(u, v)
            assignment[eid] = color
            if backtrack(index + 1):
                return True
            forest.rollback(mark)
            del assignment[eid]
        return False

    return dict(assignment) if backtrack(0) else None


def seymour_holds(
    graph: MultiGraph, palettes: Palettes, alpha: int, max_edges: int = 24
) -> bool:
    """Check Seymour's theorem on one instance: if every palette has at
    least ``alpha`` colors, an α-LFD must exist."""
    if any(len(palettes[eid]) < alpha for eid in graph.edge_ids()):
        raise GraphError("palettes smaller than alpha; Seymour does not apply")
    return exact_list_forest_decomposition(graph, palettes, max_edges) is not None
