"""Reference color queries: BFS over each color forest's adjacency.

:class:`BFSPartialListForestDecomposition` keeps every mutation of
:class:`~repro.core.partial_coloring.PartialListForestDecomposition`
and answers ``C(e, c)`` and the color-component query by a breadth-first
search of the color forest's ``adj`` (``vertex -> {edge id: other
endpoint}``) instead of the forest's parent pointers.  Paths in a forest
are unique and components are sets, so both answers must match the
kernel's exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.core.partial_coloring import PartialListForestDecomposition


class BFSPartialListForestDecomposition(PartialListForestDecomposition):
    """A partial list-forest decomposition whose queries are BFS walks."""

    def _path_search(self, u: int, v: int, color: int) -> Optional[List[int]]:
        forest = self._forests.get(color)
        if forest is None:
            return None
        adj = forest.adj
        if u not in adj or v not in adj:
            return None
        if u == v:
            return []
        parent: Dict[int, Tuple[int, int]] = {u: (u, -1)}
        queue = deque([u])
        while queue:
            vertex = queue.popleft()
            for eid, other in adj[vertex].items():
                if other not in parent:
                    parent[other] = (vertex, eid)
                    if other == v:
                        path = []
                        walk = v
                        while walk != u:
                            prev, via = parent[walk]
                            path.append(via)
                            walk = prev
                        path.reverse()
                        return path
                    queue.append(other)
        return None

    def color_component_vertices(self, start: int, color: int) -> Set[int]:
        forest = self._forests.get(color)
        if forest is None or start not in forest.adj:
            return {start}
        adj = forest.adj
        seen = {start}
        queue = deque([start])
        while queue:
            vertex = queue.popleft()
            for other in adj[vertex].values():
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        return seen
