"""Exact forest decomposition via matroid partition augmentation.

This is the centralized Gabow–Westermann-style substrate the paper
builds on (Section 1: "there is a polynomial time algorithm for
computing an exact α-forest decomposition in the centralized setting").
We implement the classic matroid-union augmenting-path algorithm for
the graphic matroid:

* maintain ``k`` forests; to insert an uncolored edge, search the
  exchange graph breadth-first: an edge ``f`` can *enter* forest ``c``
  directly if ``F_c + f`` is acyclic, or by *evicting* any edge on the
  unique cycle of ``F_c + f``.  A shortest augmenting path of
  enter/evict moves is applied back-to-front.
* if no augmenting path exists, the processed edges certify that no
  ``k``-forest partition covers them, so the arboricity exceeds ``k``
  and we open a new forest.

The result is both the exact arboricity ``α(G)`` and a
witness α-forest decomposition — ground truth for every bench.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from ..errors import DecompositionError
from ..graph.dynforest import DynamicForest
from ..graph.multigraph import MultiGraph


class _Forest:
    """One forest of the partition, over a link/cut forest.

    ``path_edges(source, target)`` returns the edge ids on the unique
    tree path in target -> source order (the cycle a new source-target
    edge would close), or None if they are in different trees.  ``add``
    raises if it would close a cycle; the back-to-front exchange never
    does, since every prefix of a shortest exchange is independent.
    """

    def __init__(self, graph: MultiGraph) -> None:
        self.graph = graph
        self._forest = DynamicForest()

    def add(self, eid: int) -> None:
        u, v = self.graph.endpoints(eid)
        self._forest.link(eid, u, v)

    def remove(self, eid: int) -> None:
        self._forest.cut(eid)

    def path_edges(self, source: int, target: int) -> Optional[List[int]]:
        """Edge ids on the tree path, target -> source, or None."""
        if source == target:
            return []
        return self._forest.path(target, source)


class MatroidPartitionResult:
    """Outcome of :func:`exact_forest_partition`."""

    def __init__(self, coloring: Dict[int, int], num_forests: int) -> None:
        self.coloring = coloring
        self.num_forests = num_forests

    def classes(self) -> Dict[int, List[int]]:
        out: Dict[int, List[int]] = {}
        for eid, color in self.coloring.items():
            out.setdefault(color, []).append(eid)
        return out


def exact_forest_partition(
    graph: MultiGraph, max_forests: Optional[int] = None
) -> MatroidPartitionResult:
    """Partition all edges into the minimum number of forests.

    Returns the coloring (edge id -> forest index, 0-based) using
    exactly ``α(G)`` forests.  ``max_forests`` optionally caps the
    search; exceeding it raises :class:`DecompositionError`.
    """
    if graph.m == 0:
        return MatroidPartitionResult({}, 0)

    forests: List[_Forest] = [_Forest(graph)]
    color_of: Dict[int, int] = {}

    for eid in graph.edge_ids():
        while not _try_insert(graph, forests, color_of, eid):
            if max_forests is not None and len(forests) >= max_forests:
                raise DecompositionError(
                    f"arboricity exceeds cap of {max_forests} forests"
                )
            forests.append(_Forest(graph))

    return MatroidPartitionResult(color_of, len(forests))


def _try_insert(
    graph: MultiGraph,
    forests: List[_Forest],
    color_of: Dict[int, int],
    new_edge: int,
) -> bool:
    """Insert ``new_edge`` via a shortest augmenting path; False if none."""
    # BFS over elements.  predecessor[f] = (g, c): f was reached because
    # adding g to forest c creates a cycle containing f.
    predecessor: Dict[int, Tuple[int, int]] = {}
    visited: Set[int] = {new_edge}
    queue = deque([new_edge])

    while queue:
        edge = queue.popleft()
        u, v = graph.endpoints(edge)
        for color, forest in enumerate(forests):
            if color_of.get(edge) == color:
                continue
            cycle = forest.path_edges(u, v)
            if cycle is None:
                # Terminal: edge enters `color` with no eviction.
                _apply_augmentation(forests, color_of, predecessor, edge, color)
                return True
            for blocked in cycle:
                if blocked not in visited:
                    visited.add(blocked)
                    predecessor[blocked] = (edge, color)
                    queue.append(blocked)
    return False


def _apply_augmentation(
    forests: List[_Forest],
    color_of: Dict[int, int],
    predecessor: Dict[int, Tuple[int, int]],
    terminal: int,
    terminal_color: int,
) -> None:
    """Apply the enter/evict chain ending at ``terminal``."""
    # Reconstruct the chain from terminal back to the uncolored edge.
    chain: List[Tuple[int, int]] = [(terminal, terminal_color)]
    edge = terminal
    while edge in predecessor:
        parent_edge, color = predecessor[edge]
        chain.append((parent_edge, color))
        edge = parent_edge
    # chain is [(terminal, c_end), ..., (start, c_1)]; apply from the
    # terminal inwards: each edge leaves its old forest (if any) and
    # enters its recorded color; the edge it evicted is the previous
    # element of the chain, which has already been moved out.
    for eid, color in chain:
        old = color_of.get(eid)
        if old is not None:
            forests[old].remove(eid)
        forests[color].add(eid)
        color_of[eid] = color
