"""Traversal utilities: BFS, neighborhoods, power graphs, components.

These implement the locality primitives from Section 1.1 of the paper:
``N^r(v)`` (the r-neighborhood of a vertex), ``N^r(e)`` and ``N^r(X)``
for edges and sets, and the power graph ``G^r`` (vertices adjacent when
their distance in G is at most r).  In the LOCAL model, simulating
``G^r`` costs ``r`` rounds; round accounting for that lives in
:mod:`repro.local.rounds`.

Substrate
---------

The hot entry points (:func:`bfs_distances`, :func:`neighborhood`,
:func:`power_graph`, :func:`connected_components`,
:func:`diameter_of_component`, :func:`weak_diameter`) accept either a
:class:`MultiGraph` or a :class:`~repro.graph.csr.CSRGraph` snapshot
and run frontier-array BFS on the flat-array kernel.  Snapshots of a
``MultiGraph`` are cached on the instance, so repeated calls pay the
conversion once.  :func:`power_graph` returns a ``CSRGraph``.

The dict-adjacency implementations these were ported from live in the
test suite's reference package (``tests/reference/traversal.py``);
``tests/test_kernel_equivalence.py`` checks that both return identical
values across a seeded corpus.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

import numpy as np

from ..errors import GraphError
from .csr import (
    CSRGraph,
    _sorted_unique,
    bfs_distance_array,
    snapshot_of,
)
from .multigraph import MultiGraph

GraphLike = Union[MultiGraph, CSRGraph]


def bfs_distances(
    graph: GraphLike,
    sources: Iterable[int],
    radius: Optional[int] = None,
) -> Dict[int, int]:
    """Breadth-first distances from a set of sources.

    Returns a dict mapping each reachable vertex to its distance from
    the nearest source; vertices beyond ``radius`` (if given) are omitted.
    """
    snap = snapshot_of(graph)
    seeds = [snap.index_of(source) for source in sources]
    dist = snap.distance_array(seeds, radius)
    reached = np.flatnonzero(dist >= 0)
    return dict(
        zip(snap.vertex_ids[reached].tolist(), dist[reached].tolist())
    )


def neighborhood(
    graph: GraphLike,
    sources: Iterable[int],
    radius: int,
) -> Set[int]:
    """``N^r(X)``: vertices within distance ``radius`` of any source vertex."""
    return snapshot_of(graph).neighborhood_set(sources, radius)


def edge_neighborhood(graph: GraphLike, eid: int, radius: int) -> Set[int]:
    """``N^r(e)``: vertices within distance ``radius`` of either endpoint."""
    u, v = graph.endpoints(eid)
    return neighborhood(graph, (u, v), radius)


def edges_within(graph: MultiGraph, vertices: Set[int]) -> List[int]:
    """Edge ids with both endpoints inside ``vertices`` (``E(X)`` in the paper)."""
    out = []
    for eid, u, v in graph.edges():
        if u in vertices and v in vertices:
            out.append(eid)
    return out


def power_graph(graph: GraphLike, radius: int) -> CSRGraph:
    """The power graph ``G^r``: simple graph joining vertices at distance <= r.

    ``G^1`` is the simplification of ``G`` (parallel edges collapsed).
    The result is a :class:`~repro.graph.csr.CSRGraph` assembled
    directly from the frontier sweeps, with the input's vertex ids.
    """
    if radius < 1:
        raise GraphError(f"power graph radius must be >= 1, got {radius}")
    return snapshot_of(graph).power_csr(radius)


def connected_components(graph: GraphLike) -> List[List[int]]:
    """Connected components as lists of vertices (deterministic order)."""
    snap = snapshot_of(graph)
    labels = snap.component_labels()
    if labels.size == 0:
        return []
    order = np.argsort(labels, kind="stable")
    boundaries = np.flatnonzero(np.diff(labels[order])) + 1
    # Labels converge to each component's minimum dense index, and
    # dense indices follow insertion order — so ascending labels list
    # components in the order their first vertex was inserted.
    return [
        sorted(snap.vertex_ids[group].tolist())
        for group in np.split(order, boundaries)
    ]


def components_of_vertices(
    graph: MultiGraph, vertices: Sequence[int]
) -> List[List[int]]:
    """Connected components of the subgraph induced by ``vertices``."""
    keep = set(vertices)
    seen: Set[int] = set()
    components: List[List[int]] = []
    for start in vertices:
        if start in seen:
            continue
        comp: List[int] = []
        queue = deque([start])
        seen.add(start)
        while queue:
            vertex = queue.popleft()
            comp.append(vertex)
            for neighbor in graph.neighbors(vertex):
                if neighbor in keep and neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        components.append(sorted(comp))
    return components


def shortest_path(
    graph: MultiGraph, source: int, target: int
) -> Optional[List[int]]:
    """A shortest vertex path from ``source`` to ``target`` or None."""
    if source == target:
        return [source]
    parent: Dict[int, int] = {source: source}
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        for neighbor in graph.neighbors(vertex):
            if neighbor not in parent:
                parent[neighbor] = vertex
                if neighbor == target:
                    path = [target]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                queue.append(neighbor)
    return None


def eccentricity(graph: MultiGraph, vertex: int) -> int:
    """Maximum distance from ``vertex`` to any reachable vertex."""
    dist = bfs_distances(graph, (vertex,))
    return max(dist.values())


def diameter_of_component(graph: GraphLike, vertices: Sequence[int]) -> int:
    """Exact strong diameter of the subgraph induced by ``vertices``.

    Runs a BFS from every vertex of the component, so it is quadratic —
    fine for the cluster sizes the validators and benches inspect.  The
    induced sub-CSR is extracted once, then swept with frontier-array
    BFS per source.  Disconnected input raises :class:`GraphError`.
    """
    if not vertices:
        return 0
    snap = snapshot_of(graph)
    members = _sorted_unique(
        np.fromiter(
            (snap.index_of(v) for v in vertices),
            dtype=np.int64,
            count=len(vertices),
        )
    )
    # One compacted sub-CSR over the members, then a k-local BFS per
    # source: cluster-sized work, independent of the host graph.
    offsets, nbr = snap.induced_sub_csr(members)
    k = int(members.size)
    best = 0
    for start in range(k):
        dist = bfs_distance_array(offsets, nbr, k, [start])
        if int((dist >= 0).sum()) != k:
            raise GraphError("diameter_of_component: vertex set is disconnected")
        best = max(best, int(dist.max()))
    return best


def weak_diameter(graph: GraphLike, vertices: Sequence[int]) -> int:
    """Weak diameter: max distance *in the whole graph* between members.

    Runs one whole-graph BFS per member over the flat arrays.
    """
    if not vertices:
        return 0
    snap = snapshot_of(graph)
    members = np.fromiter(
        (snap.index_of(v) for v in vertices),
        dtype=np.int64,
        count=len(vertices),
    )
    best = 0
    for member in members.tolist():
        to_members = snap.distance_array([member])[members]
        if int(to_members.min()) < 0:
            raise GraphError("weak_diameter: vertices not mutually reachable")
        best = max(best, int(to_members.max()))
    return best


def distance_between_sets(
    graph: MultiGraph, a: Iterable[int], b: Iterable[int]
) -> Optional[int]:
    """Shortest distance between any vertex of ``a`` and any of ``b``."""
    target = set(b)
    dist = bfs_distances(graph, a)
    hits = [d for v, d in dist.items() if v in target]
    return min(hits) if hits else None


def spanning_tree_edges(graph: MultiGraph, vertices: Sequence[int]) -> List[int]:
    """Edges of an arbitrary BFS spanning forest of the induced subgraph."""
    keep = set(vertices)
    seen: Set[int] = set()
    tree_edges: List[int] = []
    for start in vertices:
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        while queue:
            vertex = queue.popleft()
            for eid, other in graph.incident(vertex):
                if other in keep and other not in seen:
                    seen.add(other)
                    tree_edges.append(eid)
                    queue.append(other)
    return tree_edges
