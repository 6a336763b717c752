"""Reference traversal: BFS over the dict adjacency of a
:class:`~repro.graph.multigraph.MultiGraph`."""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.errors import GraphError
from repro.graph.multigraph import MultiGraph


def bfs_distances(
    graph: MultiGraph,
    sources: Iterable[int],
    radius: Optional[int] = None,
) -> Dict[int, int]:
    """Distance from the nearest source, for every vertex within
    ``radius`` (all reachable vertices when ``radius`` is None)."""
    dist_map: Dict[int, int] = {}
    queue: deque = deque()
    for source in sources:
        if not graph.has_vertex(source):
            raise GraphError(f"source vertex {source} does not exist")
        if source not in dist_map:
            dist_map[source] = 0
            queue.append(source)
    while queue:
        vertex = queue.popleft()
        d = dist_map[vertex]
        if radius is not None and d >= radius:
            continue
        for neighbor in graph.neighbors(vertex):
            if neighbor not in dist_map:
                dist_map[neighbor] = d + 1
                queue.append(neighbor)
    return dist_map


def neighborhood(
    graph: MultiGraph, sources: Iterable[int], radius: int
) -> Set[int]:
    """``N^r(X)``."""
    return set(bfs_distances(graph, sources, radius).keys())


def power_graph(graph: MultiGraph, radius: int) -> MultiGraph:
    """``G^r`` materialized as a simple :class:`MultiGraph`."""
    if radius < 1:
        raise GraphError(f"power graph radius must be >= 1, got {radius}")
    power = MultiGraph()
    for vertex in graph.vertices():
        power.add_vertex(vertex)
    for vertex in graph.vertices():
        dist = bfs_distances(graph, (vertex,), radius)
        for other in dist:
            if other > vertex:
                power.add_edge(vertex, other)
    return power


def connected_components(graph: MultiGraph) -> List[List[int]]:
    """Sorted components in first-seen order of their vertices."""
    seen: Set[int] = set()
    components: List[List[int]] = []
    for start in graph.vertices():
        if start in seen:
            continue
        component = sorted(bfs_distances(graph, (start,)).keys())
        seen.update(component)
        components.append(component)
    return components


def diameter_of_component(graph: MultiGraph, vertices: Sequence[int]) -> int:
    """Strong diameter of the subgraph induced by ``vertices``."""
    keep = set(vertices)
    best = 0
    for start in vertices:
        dist: Dict[int, int] = {start: 0}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for neighbor in graph.neighbors(v):
                if neighbor in keep and neighbor not in dist:
                    dist[neighbor] = dist[v] + 1
                    queue.append(neighbor)
        if len(dist) != len(keep):
            raise GraphError("diameter_of_component: vertex set is disconnected")
        best = max(best, max(dist.values()))
    return best


def weak_diameter(graph: MultiGraph, vertices: Sequence[int]) -> int:
    """Max distance in the whole graph between two of ``vertices``."""
    best = 0
    members = sorted(set(vertices))
    for start in vertices:
        dist = bfs_distances(graph, (start,))
        for other in members:
            if other not in dist:
                raise GraphError("weak_diameter: vertices not mutually reachable")
            best = max(best, dist[other])
    return best
