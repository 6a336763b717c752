"""Degeneracy orderings and the existential 2d-LSFD (Theorem 2.2).

The *degeneracy* of a graph is the least ``d`` admitting an acyclic
orientation of out-degree ``d``; it satisfies ``d ≤ 2α − 1``.  Theorem
2.2 shows a ``2d``-list-star-forest decomposition always exists: color
edges backward along the orientation, avoiding the colors of all
out-edges of both endpoints.  Combined with ``d ≤ 2α − 1`` this yields
the ``αliststar ≤ 4α − 2`` bound of Corollary 1.2.

This module provides the exact degeneracy (iterated minimum-degree
peeling), the associated acyclic orientation, and the constructive
Theorem 2.2 coloring — the *existential* counterpart of the distributed
Theorem 2.3 in :mod:`repro.decomposition.lsfd`.  The peeling runs on the
flat-array kernel; the dict-of-sets heap it was ported from is the test
suite's reference (``tests/reference/peel.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PaletteError
from ..graph.csr import CSRGraph
from ..graph.multigraph import MultiGraph

Palettes = Dict[int, Sequence[int]]


def degeneracy_ordering(graph: MultiGraph) -> Tuple[int, List[int]]:
    """Exact degeneracy and a peeling order (min-degree first).

    Returns ``(d, order)`` where ``order`` lists vertices in removal
    order; every vertex has at most ``d`` neighbors later in the order.
    The removal rule is: always delete the vertex minimizing
    ``(remaining degree, vertex id)``, so the order is deterministic.
    The delete-min loop runs on the flat-array kernel's peeling view.
    """
    snapshot = CSRGraph.from_multigraph(graph)
    degeneracy, order_indices = _peel_order(snapshot)
    vertex_ids = snapshot.vertex_ids.tolist()
    return degeneracy, [vertex_ids[i] for i in order_indices]


def _peel_order(snapshot: CSRGraph) -> Tuple[int, List[int]]:
    """Delete-min peeling on the kernel; returns (d, dense-index order)."""
    view = snapshot.peeling_view()
    order: List[int] = []
    degeneracy = 0
    while True:
        popped = view.pop_min()
        if popped is None:
            break
        index, deg = popped
        if deg > degeneracy:
            degeneracy = deg
        order.append(index)
    return degeneracy, order


def degeneracy_orientation(graph: MultiGraph) -> Tuple[int, Dict[int, int]]:
    """An acyclic d-orientation witnessing the exact degeneracy.

    Each edge is oriented from the endpoint peeled *earlier* (so every
    vertex's out-edges go to vertices still present when it was peeled:
    at most ``d`` of them).
    """
    snapshot = CSRGraph.from_multigraph(graph)
    degeneracy, order_indices = _peel_order(snapshot)
    if snapshot.num_edges == 0:
        return degeneracy, {}
    position = np.empty(snapshot.num_vertices, dtype=np.int64)
    position[np.asarray(order_indices, dtype=np.int64)] = np.arange(
        snapshot.num_vertices, dtype=np.int64
    )
    u_first = position[snapshot.edge_u] < position[snapshot.edge_v]
    tails = np.where(u_first, snapshot.edge_u_ids, snapshot.edge_v_ids)
    orientation = dict(zip(snapshot.edge_id.tolist(), tails.tolist()))
    return degeneracy, orientation


def theorem22_lsfd(
    graph: MultiGraph,
    palettes: Palettes,
    orientation: Optional[Dict[int, int]] = None,
) -> Dict[int, int]:
    """Theorem 2.2: a list-star-forest decomposition from palettes of
    size ``2d`` (``d`` = degeneracy, or the out-degree bound of a given
    acyclic ``orientation``).

    Edges are colored backward in the orientation; each avoids the
    colors already used by out-edges of both endpoints (at most
    ``2d − 1`` constraints, so ``2d``-palettes always suffice).
    Raises :class:`PaletteError` if palettes are smaller than that.
    """
    if orientation is None:
        _d, orientation = degeneracy_orientation(graph)

    # Reverse topological order of tails = backward in the orientation.
    out_edges: Dict[int, List[int]] = {v: [] for v in graph.vertices()}
    indegree: Dict[int, int] = {v: 0 for v in graph.vertices()}
    for eid, tail in orientation.items():
        out_edges[tail].append(eid)
        indegree[graph.other_endpoint(eid, tail)] += 1
    # Kahn order of the orientation DAG; we color vertices' out-edges in
    # *reverse* of this order.
    queue = [v for v, d in indegree.items() if d == 0]
    topo: List[int] = []
    remaining = dict(indegree)
    while queue:
        vertex = queue.pop()
        topo.append(vertex)
        for eid in out_edges[vertex]:
            head = graph.other_endpoint(eid, vertex)
            remaining[head] -= 1
            if remaining[head] == 0:
                queue.append(head)

    coloring: Dict[int, int] = {}
    for vertex in reversed(topo):
        for eid in sorted(out_edges[vertex]):
            u, v = graph.endpoints(eid)
            forbidden = {
                coloring[other]
                for endpoint in (u, v)
                for other in out_edges[endpoint]
                if other != eid and other in coloring
            }
            chosen = next(
                (c for c in palettes[eid] if c not in forbidden), None
            )
            if chosen is None:
                raise PaletteError(
                    f"edge {eid}: palette of {len(palettes[eid])} colors "
                    f"exhausted ({len(forbidden)} forbidden); Theorem 2.2 "
                    "needs 2d colors"
                )
            coloring[eid] = chosen
    return coloring
