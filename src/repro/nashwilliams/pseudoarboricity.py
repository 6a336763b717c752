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
α* = ``L``, the whole-graph density bound.  The peel's degeneracy
``d`` comes out alongside (``_pseudoarboricity_and_degeneracy``), for
the upper bound of ``exact_arboricity``'s sandwich; the pair is
memoized on the snapshot, so the two functions share one peel.

**Witnesses** (:func:`orientation_exists`) are Dinic's maximum flow
[PQ82] on the bipartite network

    source -> each edge node (capacity 1)
    edge node -> each of its two endpoints (capacity 1)
    vertex -> sink (capacity k)

run on the snapshot's edge arrays.  All ``m`` units route iff a
k-orientation exists; the edge nodes' flow gives the orientation.  The
``exact`` orientation method, the Section 5 t-orientation and the
golden files depend on which witness Dinic picks, so the kernel keeps
the arc order of the dict-keyed network it replaced (the reference in
``tests/reference/flow.py``):

* Dinic's first level graph on this network is always
  source / edge nodes / vertices / sink, and its blocking flow takes
  the edges in order, trying ``u`` before ``v``.  That phase is one
  greedy pass: an edge leaves ``u`` if ``u``'s load is below ``k``,
  else ``v`` if ``v``'s is, else it stays unrouted.  When every edge
  routes, the next BFS would find no path, so the pass is the answer.
* Otherwise Dinic resumes from that residual state on flat arc lists
  with the old per-node arc order (the source's arcs in edge order; an
  edge node's back-arc, then ``u``, then ``v``; a vertex's back-arcs in
  edge order, then its sink arc).  Levels are BFS distances, which no
  arc order changes, and the DFS visits arcs in the old order, so each
  phase pushes the same paths and the witness is identical.

Tests cross-check the witness against the reference Dinic, the two
functions against each other, against ``⌈α/2⌉ <= α* <= α`` and against
brute-force densities on tiny graphs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import GraphError
from ..graph.csr import CSRGraph, degeneracy_peel, snapshot_of
from ..graph.multigraph import MultiGraph

Orientation = Dict[int, int]  # edge id -> tail vertex (edge points away)


def orientation_exists(graph: MultiGraph, k: int) -> Optional[Orientation]:
    """A max out-degree-``k`` orientation, or None if impossible.

    The returned dict maps each edge id (in edge order) to the endpoint
    that the edge leaves (its tail); out-degree of v = #{edges with
    tail v} <= k.
    """
    if k < 0:
        raise GraphError("orientation bound must be non-negative")
    snapshot = snapshot_of(graph)
    m = snapshot.num_edges
    if m == 0:
        return {}
    edge_u = snapshot.edge_u.tolist()
    edge_v = snapshot.edge_v.tolist()
    # Dinic's first phase: tail[pos] is the dense index the edge at
    # position ``pos`` leaves, or -1 while it is unrouted.
    load = [0] * snapshot.num_vertices
    tail = [-1] * m
    unrouted = 0
    for pos, u in enumerate(edge_u):
        if load[u] < k:
            load[u] += 1
            tail[pos] = u
            continue
        v = edge_v[pos]
        if load[v] < k:
            load[v] += 1
            tail[pos] = v
        else:
            unrouted += 1
    if unrouted and not _route_rest(edge_u, edge_v, tail, load, k, unrouted):
        return None
    tail_ids = snapshot.vertex_ids[np.asarray(tail, dtype=np.int64)]
    return dict(zip(snapshot.edge_id.tolist(), tail_ids.tolist()))


def _route_rest(
    edge_u: List[int],
    edge_v: List[int],
    tail: List[int],
    load: List[int],
    k: int,
    unrouted: int,
) -> bool:
    """Dinic's later phases from the greedy pass's residual state.

    Routes the ``unrouted`` edges (``tail == -1``) if the flow allows,
    rewriting ``tail`` in place; False when the maximum flow is short.

    Nodes: the source 0, the edge at position ``p`` as ``1 + p``,
    vertex ``x`` as ``1 + m + x``, the sink ``1 + m + n``.  Arc ``a``
    and ``a ^ 1`` are residual twins: ``6p`` source -> edge,
    ``6p + 2`` edge -> u, ``6p + 4`` edge -> v, ``6m + 2x`` vertex x ->
    sink.  Each node lists its arcs in the order the dict-keyed network
    added them (see the module docstring).
    """
    m, n = len(edge_u), len(load)
    source, sink = 0, 1 + m + n
    eu = np.asarray(edge_u, dtype=np.int64)
    ev = np.asarray(edge_v, dtype=np.int64)
    pos = np.arange(m, dtype=np.int64)
    head = np.empty(6 * m + 2 * n, dtype=np.int64)
    head[0 : 6 * m : 6] = 1 + pos
    head[1 : 6 * m : 6] = source
    head[2 : 6 * m : 6] = 1 + m + eu
    head[3 : 6 * m : 6] = 1 + pos
    head[4 : 6 * m : 6] = 1 + m + ev
    head[5 : 6 * m : 6] = 1 + pos
    head[6 * m :: 2] = sink
    head[6 * m + 1 :: 2] = 1 + m + np.arange(n, dtype=np.int64)

    tails = np.asarray(tail, dtype=np.int64)
    to_u = (tails == eu).astype(np.int64)
    to_v = (tails == ev).astype(np.int64)
    loads = np.asarray(load, dtype=np.int64)
    cap = np.empty_like(head)
    cap[1 : 6 * m : 6] = to_u + to_v
    cap[0 : 6 * m : 6] = 1 - cap[1 : 6 * m : 6]
    cap[3 : 6 * m : 6] = to_u
    cap[2 : 6 * m : 6] = 1 - to_u
    cap[5 : 6 * m : 6] = to_v
    cap[4 : 6 * m : 6] = 1 - to_v
    cap[6 * m :: 2] = k - loads
    cap[6 * m + 1 :: 2] = loads

    # Vertex x's back-arcs (6p + 3 when x = u_p, 6p + 5 when x = v_p)
    # in edge order; a stable sort of the interleaved endpoints keeps it.
    ends = np.empty(2 * m, dtype=np.int64)
    ends[0::2] = eu
    ends[1::2] = ev
    backs = np.empty(2 * m, dtype=np.int64)
    backs[0::2] = 6 * pos + 3
    backs[1::2] = 6 * pos + 5
    backs = backs[np.argsort(ends, kind="stable")]
    degree = np.bincount(ends, minlength=n)
    vertex_stop = 4 * m + np.cumsum(degree + 1)
    sink_arcs = 6 * m + 2 * np.arange(n, dtype=np.int64)
    vertex_arcs = np.empty(2 * m + n, dtype=np.int64)
    sink_slots = vertex_stop - (4 * m + 1)
    vertex_arcs[sink_slots] = sink_arcs
    keep = np.ones(2 * m + n, dtype=bool)
    keep[sink_slots] = False
    vertex_arcs[keep] = backs
    edge_arcs = np.empty(3 * m, dtype=np.int64)
    edge_arcs[0::3] = 6 * pos + 1
    edge_arcs[1::3] = 6 * pos + 2
    edge_arcs[2::3] = 6 * pos + 4
    arcs = np.concatenate(
        (6 * pos, edge_arcs, vertex_arcs, sink_arcs + 1)
    ).tolist()
    offsets = np.concatenate(
        (
            [0],
            m + 3 * np.arange(m + 1, dtype=np.int64),
            vertex_stop,
            vertex_stop[-1:] + n,
        )
    ).tolist()
    head_list = head.tolist()
    caps = cap.tolist()
    num_nodes = sink + 1

    while True:
        # BFS levels (shortest residual distances from the source).  A
        # node at the sink's distance or beyond is never on a shortest
        # path, so the search stops there.
        level = [-1] * num_nodes
        level[source] = 0
        queue = [source]
        for x in queue:
            below = level[x] + 1
            if below > level[sink] > 0:
                break
            for i in range(offsets[x], offsets[x + 1]):
                arc = arcs[i]
                if caps[arc] > 0:
                    y = head_list[arc]
                    if level[y] < 0:
                        level[y] = below
                        queue.append(y)
        if level[sink] < 0:
            return False
        # Blocking flow: one unit per path (every path starts on a
        # capacity-1 source arc), arcs tried in order, ``next_arc``
        # advancing only past arcs that dead-end.
        next_arc = offsets[:-1]
        while True:
            path: List[int] = []
            x = source
            while x != sink:
                i, stop = next_arc[x], offsets[x + 1]
                below = level[x] + 1
                while i < stop:
                    arc = arcs[i]
                    if caps[arc] > 0 and level[head_list[arc]] == below:
                        break
                    i += 1
                next_arc[x] = i
                if i < stop:
                    path.append(arc)
                    x = head_list[arc]
                    continue
                if not path:
                    break
                x = head_list[path.pop() ^ 1]
                next_arc[x] += 1
            if x != sink:
                break
            for arc in path:
                caps[arc] -= 1
                caps[arc ^ 1] += 1
            unrouted -= 1
            if unrouted == 0:
                for p in range(m):
                    tail[p] = edge_u[p] if caps[6 * p + 3] else edge_v[p]
                return True


def exact_pseudoarboricity(graph: MultiGraph) -> int:
    """The exact pseudoarboricity α*(G) (0 for edgeless graphs)."""
    return _pseudoarboricity_and_degeneracy(snapshot_of(graph))[0]


def _pseudoarboricity_and_degeneracy(snapshot: CSRGraph) -> Tuple[int, int]:
    """``(α*, d)``: the pseudoarboricity and the degeneracy, from one
    peel (both 0 for edgeless graphs).  Memoized on the snapshot (it
    is immutable), so ``exact_arboricity`` followed by
    ``exact_pseudoarboricity`` peels once."""
    if snapshot._peel_bounds is None:
        snapshot._peel_bounds = _peel(snapshot)
    return snapshot._peel_bounds


def _peel(snapshot: CSRGraph) -> Tuple[int, int]:
    n, m = snapshot.num_vertices, snapshot.num_edges
    if m == 0:
        return 0, 0
    degeneracy, order = degeneracy_peel(snapshot)
    rank = np.empty(n, dtype=np.int64)
    rank[np.asarray(order, dtype=np.int64)] = np.arange(n, dtype=np.int64)
    edge_u, edge_v = snapshot.edge_u, snapshot.edge_v
    tails = np.where(rank[edge_u] < rank[edge_v], edge_u, edge_v)
    # tail[pos]: dense index of the vertex edge position ``pos`` leaves
    tail = tails.tolist()
    out = np.bincount(tails, minlength=n).tolist()
    offsets, neighbors = snapshot.adjacency_lists()
    half_pos = snapshot.edge_positions(snapshot.half_edge_ids).tolist()
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
                return k + 1, degeneracy
            out[start] -= 1
            out[end] += 1
            x = end
            while x != start:
                pos = via[x]
                previous = tail[pos]
                tail[pos] = x
                x = previous
    return low, degeneracy


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
