"""Exact list-forest decomposition by backtracking (tiny graphs).

Seymour [Sey98] proved that α(G)-list-forest decompositions exist for
*any* palettes of size α — the combinatorial fact that makes the
paper's (1+ε)α-LFD targets sensible.  This module provides a
backtracking solver used as ground truth: its tests
(``tests/test_list_forest_exact.py``) verify Seymour's theorem
empirically on random tiny instances.  No library path runs it.

:class:`RollbackUnionFind` (its per-color connectivity with LIFO undo)
lives here with its only user.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import GraphError
from repro.graph.multigraph import MultiGraph

Palettes = Dict[int, Sequence[int]]


class RollbackUnionFind:
    """Union-find supporting LIFO rollback of unions.

    Path compression is disabled (it would make rollback incorrect), so
    ``find`` is O(log n) by union-by-rank alone; this is the standard
    trade-off for a persistent/undoable DSU.
    """

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._rank: Dict[Hashable, int] = {}
        self._history: List[Tuple[Hashable, Hashable, bool]] = []
        self._components = 0
        for item in items:
            self.add(item)

    def add(self, item: Hashable) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0
            self._components += 1

    @property
    def components(self) -> int:
        return self._components

    def find(self, item: Hashable) -> Hashable:
        self.add(item)
        while self._parent[item] != item:
            item = self._parent[item]
        return item

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge sets; records the operation so it can be undone."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            self._history.append((ra, rb, False))
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        rank_bumped = self._rank[ra] == self._rank[rb]
        self._parent[rb] = ra
        if rank_bumped:
            self._rank[ra] += 1
        self._components -= 1
        self._history.append((ra, rb, rank_bumped))
        return True

    def connected(self, a: Hashable, b: Hashable) -> bool:
        return self.find(a) == self.find(b)

    def checkpoint(self) -> int:
        """Return a marker for the current history position."""
        return len(self._history)

    def rollback(self, checkpoint: int) -> None:
        """Undo all unions performed after ``checkpoint``."""
        if checkpoint > len(self._history):
            raise ValueError("checkpoint is ahead of history")
        while len(self._history) > checkpoint:
            ra, rb, rank_bumped = self._history.pop()
            if ra == rb:
                continue  # recorded no-op union: sets were already merged
            self._parent[rb] = rb
            if rank_bumped:
                self._rank[ra] -= 1
            self._components += 1


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
