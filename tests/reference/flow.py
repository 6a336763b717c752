"""Reference Dinic: maximum flow on a dict-keyed network.

The library computed its witness k-orientations on this network
(``orientation_exists`` below, kept as it was); it now routes them on
the snapshot's edge arrays
(:func:`repro.nashwilliams.pseudoarboricity.orientation_exists`), which
must return the identical witness.  Tests also use :class:`FlowNetwork`
as an independent oracle for matchings.  Written from scratch; no
external graph library involved.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import GraphError
from repro.graph.multigraph import MultiGraph


class FlowNetwork:
    """A directed flow network with integer capacities.

    Vertices are arbitrary hashables registered on first use.  Arcs are
    stored in an adjacency list of indices into flat arrays (the classic
    paired-residual layout: arc ``i`` and ``i ^ 1`` are residual twins).
    """

    def __init__(self) -> None:
        self._index: Dict[object, int] = {}
        self._names: List[object] = []
        self._head: List[int] = []
        self._cap: List[int] = []
        self._adj: List[List[int]] = []

    def _vertex(self, name: object) -> int:
        if name not in self._index:
            self._index[name] = len(self._names)
            self._names.append(name)
            self._adj.append([])
        return self._index[name]

    def add_arc(self, source: object, target: object, capacity: int) -> int:
        """Add a directed arc; returns its arc index (for flow queries)."""
        if capacity < 0:
            raise GraphError(f"negative capacity {capacity}")
        u, v = self._vertex(source), self._vertex(target)
        arc = len(self._head)
        self._head.append(v)
        self._cap.append(capacity)
        self._adj[u].append(arc)
        self._head.append(u)
        self._cap.append(0)
        self._adj[v].append(arc + 1)
        return arc

    def max_flow(self, source: object, sink: object) -> int:
        """Compute the maximum ``source``-to-``sink`` flow (Dinic)."""
        if source not in self._index or sink not in self._index:
            return 0
        s, t = self._index[source], self._index[sink]
        if s == t:
            raise GraphError("source equals sink")
        total = 0
        n = len(self._names)
        while True:
            level = self._bfs_levels(s, t)
            if level is None:
                return total
            next_arc = [0] * n
            while True:
                pushed = self._dfs_push(s, t, level, next_arc)
                if pushed == 0:
                    break
                total += pushed

    def _bfs_levels(self, s: int, t: int) -> Optional[List[int]]:
        level = [-1] * len(self._names)
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for arc in self._adj[u]:
                v = self._head[arc]
                if self._cap[arc] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _dfs_push(
        self, s: int, t: int, level: List[int], next_arc: List[int]
    ) -> int:
        """Push one augmenting path of the level graph; 0 if none.

        An explicit stack of path arcs replaces recursion, so paths of
        any length fit; arcs are tried in the recursive order (a
        vertex's ``next_arc`` advances only past arcs that dead-end).
        """
        adj, head, cap = self._adj, self._head, self._cap
        path: List[int] = []
        u = s
        while u != t:
            arcs = adj[u]
            i = next_arc[u]
            while i < len(arcs):
                arc = arcs[i]
                v = head[arc]
                if cap[arc] > 0 and level[v] == level[u] + 1:
                    break
                i += 1
            next_arc[u] = i
            if i < len(arcs):
                path.append(arc)
                u = v
                continue
            if not path:
                return 0
            # Dead end: retreat one arc and skip it at its tail.
            u = head[path.pop() ^ 1]
            next_arc[u] += 1
        pushed = min(cap[arc] for arc in path)
        for arc in path:
            cap[arc] -= pushed
            cap[arc ^ 1] += pushed
        return pushed

    def flow_on(self, arc: int) -> int:
        """Flow currently routed on the arc returned by :meth:`add_arc`."""
        return self._cap[arc ^ 1]

    def min_cut_side(self, source: object) -> Set[object]:
        """Vertices reachable from ``source`` in the residual graph.

        Call after :meth:`max_flow`; the returned set is the source side
        of a minimum cut.
        """
        if source not in self._index:
            return set()
        s = self._index[source]
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for arc in self._adj[u]:
                v = self._head[arc]
                if self._cap[arc] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return {self._names[i] for i in seen}


def orientation_exists(graph: MultiGraph, k: int) -> Optional[Dict[int, int]]:
    """A max out-degree-``k`` orientation (edge id -> tail) from the
    bipartite flow source -> edge -> endpoint -> sink, or None."""
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
    orientation: Dict[int, int] = {}
    for eid, (arc_u, arc_v) in edge_arcs.items():
        u, v = graph.endpoints(eid)
        orientation[eid] = u if net.flow_on(arc_u) == 1 else v
    return orientation
