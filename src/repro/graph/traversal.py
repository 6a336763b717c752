"""Traversal utilities: BFS, neighborhoods, power graphs, components.

These implement the locality primitives from Section 1.1 of the paper:
``N^r(v)`` (the r-neighborhood of a vertex), ``N^r(e)`` and ``N^r(X)``
for edges and sets, and the power graph ``G^r`` (vertices adjacent when
their distance in G is at most r).  In the LOCAL model, simulating
``G^r`` costs ``r`` rounds; round accounting for that lives in
:mod:`repro.local.rounds`.

Backend contract
----------------

The hot entry points (:func:`bfs_distances`, :func:`neighborhood`,
:func:`power_graph`, :func:`connected_components`,
:func:`diameter_of_component`) accept either a :class:`MultiGraph` or a
:class:`~repro.graph.csr.CSRGraph` snapshot, plus a ``backend``:

* ``"dict"`` — the original dict-of-sets implementation, preserved as
  the byte-for-byte reference path;
* ``"csr"`` — frontier-array BFS on the flat-array kernel (snapshots of
  a ``MultiGraph`` are cached on the instance, so repeated calls pay
  the conversion once);
* ``"auto"`` (default) — ``csr`` for :class:`CSRGraph` inputs and for
  large ``MultiGraph`` inputs, ``dict`` below the size cutoff where
  array setup outweighs the win.  ``power_graph`` is the exception: on
  a ``MultiGraph`` it keeps the dict backend (the return type must stay
  ``MultiGraph`` for existing callers) and returns a CSR power graph
  only for snapshot inputs or an explicit kernel backend.

All backends return identical values (verified across the seeded
corpus in ``tests/test_kernel_equivalence.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

import numpy as np

from ..errors import GraphError
from .csr import (
    CSRGraph,
    bfs_distance_array,
    resolve_backend,
    snapshot_of,
)
from .multigraph import MultiGraph

GraphLike = Union[MultiGraph, CSRGraph]


def bfs_distances(
    graph: GraphLike,
    sources: Iterable[int],
    radius: Optional[int] = None,
    backend: str = "auto",
) -> Dict[int, int]:
    """Breadth-first distances from a set of sources.

    Returns a dict mapping each reachable vertex to its distance from
    the nearest source; vertices beyond ``radius`` (if given) are omitted.
    """
    if resolve_backend(graph, backend) == "csr":
        snap = snapshot_of(graph)
        seeds = [snap.index_of(source) for source in sources]
        dist = snap.distance_array(seeds, radius)
        reached = np.flatnonzero(dist >= 0)
        return dict(
            zip(snap.vertex_ids[reached].tolist(), dist[reached].tolist())
        )
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
    graph: GraphLike,
    sources: Iterable[int],
    radius: int,
    backend: str = "auto",
) -> Set[int]:
    """``N^r(X)``: vertices within distance ``radius`` of any source vertex."""
    if resolve_backend(graph, backend) == "csr":
        snap = snapshot_of(graph)
        return snap.neighborhood_set(sources, radius)
    return set(bfs_distances(graph, sources, radius, backend="dict").keys())


def edge_neighborhood(
    graph: GraphLike, eid: int, radius: int, backend: str = "auto"
) -> Set[int]:
    """``N^r(e)``: vertices within distance ``radius`` of either endpoint."""
    u, v = graph.endpoints(eid)
    return neighborhood(graph, (u, v), radius, backend=backend)


def edges_within(graph: MultiGraph, vertices: Set[int]) -> List[int]:
    """Edge ids with both endpoints inside ``vertices`` (``E(X)`` in the paper)."""
    out = []
    for eid, u, v in graph.edges():
        if u in vertices and v in vertices:
            out.append(eid)
    return out


def power_graph(
    graph: GraphLike, radius: int, backend: str = "auto"
) -> GraphLike:
    """The power graph ``G^r``: simple graph joining vertices at distance <= r.

    ``G^1`` is the simplification of ``G`` (parallel edges collapsed).

    The return type follows the backend: the dict reference path builds
    a :class:`MultiGraph`; the csr path assembles a
    :class:`~repro.graph.csr.CSRGraph` snapshot directly from the
    frontier sweeps (the network-decomposition machinery consumes
    either).  ``backend="auto"`` keeps the input's representation.
    """
    if backend == "auto":
        backend = "csr" if isinstance(graph, CSRGraph) else "dict"
    if resolve_backend(graph, backend) == "csr":
        if radius < 1:
            raise GraphError(f"power graph radius must be >= 1, got {radius}")
        return snapshot_of(graph).power_csr(radius)
    if radius < 1:
        raise GraphError(f"power graph radius must be >= 1, got {radius}")
    power = MultiGraph()
    for vertex in graph.vertices():
        power.add_vertex(vertex)
    for vertex in graph.vertices():
        dist = bfs_distances(graph, (vertex,), radius, backend="dict")
        for other in dist:
            if other > vertex:
                power.add_edge(vertex, other)
    return power


def connected_components(
    graph: GraphLike, backend: str = "auto"
) -> List[List[int]]:
    """Connected components as lists of vertices (deterministic order)."""
    if resolve_backend(graph, backend) == "csr":
        snap = snapshot_of(graph)
        labels = snap.component_labels()
        if labels.size == 0:
            return []
        order = np.argsort(labels, kind="stable")
        boundaries = np.flatnonzero(np.diff(labels[order])) + 1
        # Labels converge to each component's minimum dense index, and
        # dense indices follow insertion order — so ascending labels
        # reproduce the reference's first-seen component order.
        return [
            sorted(snap.vertex_ids[group].tolist())
            for group in np.split(order, boundaries)
        ]
    seen: Set[int] = set()
    components: List[List[int]] = []
    for start in graph.vertices():
        if start in seen:
            continue
        component = sorted(bfs_distances(graph, (start,), backend="dict").keys())
        seen.update(component)
        components.append(component)
    return components


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


def diameter_of_component(
    graph: GraphLike,
    vertices: Sequence[int],
    backend: str = "auto",
) -> int:
    """Exact strong diameter of the subgraph induced by ``vertices``.

    Runs a BFS from every vertex of the component, so it is quadratic —
    fine for the cluster sizes the validators and benches inspect.  The
    csr path extracts the induced sub-CSR once, then sweeps it with
    frontier-array BFS per source.  Disconnected input raises
    :class:`GraphError`.
    """
    if resolve_backend(graph, backend) == "csr":
        if not vertices:
            return 0
        snap = snapshot_of(graph)
        members = np.unique(
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
            eccentricity_ = int(dist.max())
            if int((dist >= 0).sum()) != k:
                raise GraphError(
                    "diameter_of_component: vertex set is disconnected"
                )
            best = max(best, eccentricity_)
        return best
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


def weak_diameter(
    graph: GraphLike,
    vertices: Sequence[int],
    backend: str = "auto",
) -> int:
    """Weak diameter: max distance *in the whole graph* between members.

    The kernel path runs one whole-graph BFS per member over the flat
    arrays.  Distances in a graph are unique, so every backend returns
    the same value.
    """
    if resolve_backend(graph, backend) == "csr":
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
                raise GraphError(
                    "weak_diameter: vertices not mutually reachable"
                )
            best = max(best, int(to_members.max()))
        return best
    best = 0
    members = sorted(set(vertices))
    for start in vertices:
        dist = bfs_distances(graph, (start,), backend="dict")
        for other in members:
            if other not in dist:
                raise GraphError("weak_diameter: vertices not mutually reachable")
            best = max(best, dist[other])
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
