"""Exact star arboricity for small graphs, plus combinatorial bounds.

The star arboricity ``αstar(G)`` is the minimum number of star-forests
partitioning the edges (Corollary 1.2 context).  Exact computation is
NP-hard in general; we provide a backtracking solver adequate for the
small ground-truth instances used by the Corollary 1.2 bench, plus the
standard bounds ``α <= αstar <= 2α``.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..errors import GraphError
from ..graph.multigraph import MultiGraph
from .arboricity import exact_arboricity


class _StarClass:
    """Incremental star-forest membership test for one color class.

    Tracks each vertex's neighbor set within the class.  An edge set is
    a star forest iff every edge has an endpoint of degree 1 and no two
    parallel edges share the class; both are checkable from local
    degrees at insertion time.
    """

    def __init__(self, graph: MultiGraph) -> None:
        self.graph = graph
        self.neighbors: Dict[int, Set[int]] = {}
        self.pairs: Set[Tuple[int, int]] = set()

    @property
    def degree(self) -> Dict[int, Set[int]]:
        # Used only as an emptiness indicator by the solver.
        return self.neighbors

    def _deg(self, vertex: int) -> int:
        return len(self.neighbors.get(vertex, ()))

    def can_add(self, u: int, v: int) -> bool:
        key = (min(u, v), max(u, v))
        if key in self.pairs:
            return False  # parallel edge inside one class => 2-cycle
        du, dv = self._deg(u), self._deg(v)
        if du == 0 and dv == 0:
            return True
        if du > 0 and dv > 0:
            return False  # both endpoints used => P4 or cycle
        center = u if du > 0 else v
        if self._deg(center) == 1:
            # `center` is currently a leaf; it may flip to being the
            # center of its K2 only if its unique neighbor is also a
            # leaf (otherwise that neighbor is a real center and we
            # would create a 3-edge path).
            (other,) = self.neighbors[center]
            return self._deg(other) == 1
        return True  # already a proper center

    def add(self, u: int, v: int) -> None:
        self.pairs.add((min(u, v), max(u, v)))
        self.neighbors.setdefault(u, set()).add(v)
        self.neighbors.setdefault(v, set()).add(u)

    def remove(self, u: int, v: int) -> None:
        self.pairs.discard((min(u, v), max(u, v)))
        self.neighbors[u].discard(v)
        self.neighbors[v].discard(u)
        if not self.neighbors[u]:
            del self.neighbors[u]
        if not self.neighbors[v]:
            del self.neighbors[v]


def star_forest_partition_exists(
    graph: MultiGraph, k: int, max_edges: int = 40
) -> Optional[Dict[int, int]]:
    """Backtracking: a k-star-forest partition, or None.

    Exponential time; refuses graphs with more than ``max_edges`` edges.
    Edges are assigned in descending-degree order with symmetry breaking
    on the first edge.
    """
    if graph.m > max_edges:
        raise GraphError(
            f"exact star arboricity limited to m <= {max_edges}, got {graph.m}"
        )
    if graph.m == 0:
        return {}
    if k <= 0:
        return None

    order = sorted(
        graph.edge_ids(),
        key=lambda e: -(graph.degree(graph.endpoints(e)[0]) + graph.degree(graph.endpoints(e)[1])),
    )
    classes = [_StarClass(graph) for _ in range(k)]
    assignment: Dict[int, int] = {}

    def backtrack(index: int) -> bool:
        if index == len(order):
            return True
        eid = order[index]
        u, v = graph.endpoints(eid)
        tried_empty = False
        for color, cls in enumerate(classes):
            if not cls.degree:
                if tried_empty:
                    continue  # symmetry: all empty classes equivalent
                tried_empty = True
            if cls.can_add(u, v):
                cls.add(u, v)
                assignment[eid] = color
                if backtrack(index + 1):
                    return True
                cls.remove(u, v)
                del assignment[eid]
        return False

    return dict(assignment) if backtrack(0) else None


def exact_star_arboricity(graph: MultiGraph, max_edges: int = 40) -> int:
    """Exact αstar(G) by increasing k until a partition exists."""
    if graph.m == 0:
        return 0
    lower = max(1, exact_arboricity(graph))
    k = lower
    while True:
        if star_forest_partition_exists(graph, k, max_edges) is not None:
            return k
        k += 1


def star_arboricity_bounds(graph: MultiGraph) -> Tuple[int, int]:
    """(lower, upper) bounds: α <= αstar <= 2α (Corollary 1.2)."""
    alpha = exact_arboricity(graph)
    if alpha == 0:
        return 0, 0
    return alpha, 2 * alpha
