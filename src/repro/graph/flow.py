"""Dinic's maximum-flow algorithm on integer-capacity networks.

Used for witness k-orientations (``orientation_exists`` in
:mod:`repro.nashwilliams.pseudoarboricity`) and by tests as an
independent oracle for matchings.  Written from scratch; no external
graph library involved.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set

from ..errors import GraphError


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
