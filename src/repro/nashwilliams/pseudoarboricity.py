"""Exact pseudoarboricity by path reversal; witness orientations by flow.

A graph decomposes into ``k`` pseudoforests iff its edges can be
oriented with maximum out-degree ``k`` (the paper's "k-orientation",
Section 1), so the pseudoarboricity α*(G) is the least such ``k``.

**The value** (:func:`exact_pseudoarboricity`) comes from path
reversal on the graph's CSR snapshot.  Orient every edge along the
degeneracy peel order (out-degree ≤ d), then for ``k`` = max
out-degree − 1 down to ``L = max(1, ⌈m/n⌉)`` drive every vertex of
out-degree ``k + 1`` down to ``k``: a BFS along out-edges finds a vertex
of out-degree below ``k`` and the path to it is reversed, which moves
one unit of out-degree from its start to its end and changes no other
vertex.  When a BFS from an over-full vertex ``v`` fails, the set ``S``
it reached is closed under out-edges and every vertex of ``S`` has
out-degree ≥ ``k`` (``v`` has ``k + 1``), so ``|E(S)| > k|S|`` and no
``k``-orientation exists: α* = ``k + 1``.  If every level succeeds,
α* = ``L``, the whole-graph density bound.

**Witnesses** (:func:`orientation_exists`) come from a bipartite flow
[PQ82], whose deterministic output the ``exact`` orientation method,
the Section 5 t-orientation and the golden files depend on:

    source -> each edge node (capacity 1)
    edge node -> each of its two endpoints (capacity 1)
    vertex -> sink (capacity k)

All ``m`` units route iff a k-orientation exists; the edge nodes'
flow gives the orientation.  Tests cross-check the two against each
other, against ``⌈α/2⌉ <= α* <= α`` and against brute-force densities
on tiny graphs.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import GraphError
from ..graph.csr import snapshot_of
from ..graph.flow import FlowNetwork
from ..graph.multigraph import MultiGraph

Orientation = Dict[int, int]  # edge id -> tail vertex (edge points away)


def orientation_exists(graph: MultiGraph, k: int) -> Optional[Orientation]:
    """A max out-degree-``k`` orientation, or None if impossible.

    The returned dict maps each edge id to the endpoint that the edge
    leaves (its tail); out-degree of v = #{edges with tail v} <= k.
    """
    if k < 0:
        raise GraphError("orientation bound must be non-negative")
    if graph.m == 0:
        return {}
    net = FlowNetwork()
    edge_arcs: Dict[int, Tuple[int, int]] = {}
    for eid, u, v in graph.edges():
        net.add_arc("s", ("e", eid), 1)
        arc_u = net.add_arc(("e", eid), ("v", u), 1)
        arc_v = net.add_arc(("e", eid), ("v", v), 1)
        edge_arcs[eid] = (arc_u, arc_v)
    for vertex in graph.vertices():
        net.add_arc(("v", vertex), "t", k)
    if net.max_flow("s", "t") < graph.m:
        return None
    orientation: Orientation = {}
    for eid, (arc_u, arc_v) in edge_arcs.items():
        u, v = graph.endpoints(eid)
        orientation[eid] = u if net.flow_on(arc_u) == 1 else v
    return orientation


def exact_pseudoarboricity(graph: MultiGraph) -> int:
    """The exact pseudoarboricity α*(G) (0 for edgeless graphs)."""
    # Imported here so that loading repro.nashwilliams on its own does
    # not pull in the repro.decomposition package.
    from ..decomposition.degeneracy import _peel_order

    snapshot = snapshot_of(graph)
    n, m = snapshot.num_vertices, snapshot.num_edges
    if m == 0:
        return 0
    _degeneracy, order = _peel_order(snapshot)
    rank = np.empty(n, dtype=np.int64)
    rank[np.asarray(order, dtype=np.int64)] = np.arange(n, dtype=np.int64)
    edge_u, edge_v = snapshot.edge_u, snapshot.edge_v
    tails = np.where(rank[edge_u] < rank[edge_v], edge_u, edge_v)
    # tail[pos]: dense index of the vertex edge position ``pos`` leaves
    tail = tails.tolist()
    out = np.bincount(tails, minlength=n).tolist()
    offsets, neighbors = snapshot.adjacency_lists()
    half_pos = snapshot.edge_positions(snapshot.edge_ids).tolist()
    low = max(1, -(-m // n))
    seen = [0] * n  # BFS stamp of the last search that reached a vertex
    via = [0] * n  # edge position that search first reached it by
    stamp = 0
    for k in range(max(out) - 1, low - 1, -1):
        # Out-degrees are <= k + 1 here; push every k + 1 down to k.
        for start in range(n):
            if out[start] <= k:
                continue
            stamp += 1
            seen[start] = stamp
            queue = [start]
            end = -1
            for x in queue:
                for half in range(offsets[x], offsets[x + 1]):
                    pos = half_pos[half]
                    if tail[pos] != x:
                        continue
                    y = neighbors[half]
                    if seen[y] == stamp:
                        continue
                    seen[y] = stamp
                    via[y] = pos
                    if out[y] < k:
                        end = y
                        break
                    queue.append(y)
                if end >= 0:
                    break
            if end < 0:
                # ``queue`` is closed under out-edges with out-degree
                # sum > k * len(queue): denser than k.
                return k + 1
            out[start] -= 1
            out[end] += 1
            x = end
            while x != start:
                pos = via[x]
                previous = tail[pos]
                tail[pos] = x
                x = previous
    return low


def exact_pseudoarboricity_with_orientation(
    graph: MultiGraph,
) -> Tuple[int, Orientation]:
    """(α*(G), witness α*-orientation from :func:`orientation_exists`)."""
    value = exact_pseudoarboricity(graph)
    witness = orientation_exists(graph, value)
    if witness is None:
        raise GraphError(f"no {value}-orientation found at the pseudoarboricity")
    return value, witness


def out_degrees(graph: MultiGraph, orientation: Orientation) -> Dict[int, int]:
    """Out-degree profile of an orientation (vertices with 0 included)."""
    degrees = {v: 0 for v in graph.vertices()}
    for _eid, tail in orientation.items():
        degrees[tail] += 1
    return degrees


def pseudoforest_decomposition_from_orientation(
    graph: MultiGraph, orientation: Orientation
) -> Dict[int, int]:
    """Split edges into pseudoforests by ranking each vertex's out-edges.

    If every vertex has out-degree <= k, assigning each vertex's
    out-edges distinct indices 0..k-1 makes each index class a
    functional graph (<= 1 out-edge per vertex) — a pseudoforest.
    """
    next_index: Dict[int, int] = {}
    coloring: Dict[int, int] = {}
    for eid in sorted(orientation):
        tail = orientation[eid]
        index = next_index.get(tail, 0)
        coloring[eid] = index
        next_index[tail] = index + 1
    return coloring
