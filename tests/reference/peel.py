"""Reference peels: the dict loops of the H-partition (Theorem 2.1),
its acyclic orientation and the degeneracy ordering."""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.decomposition.hpartition import HPartition
from repro.errors import DecompositionError
from repro.graph.multigraph import MultiGraph
from repro.local.rounds import RoundCounter, ensure_counter


def h_partition(
    graph: MultiGraph,
    threshold: int,
    rounds: Optional[RoundCounter] = None,
    max_iterations: Optional[int] = None,
) -> HPartition:
    """Peel every live vertex of remaining degree <= ``threshold`` per
    wave; one LOCAL round per wave."""
    counter = ensure_counter(rounds)
    cap = max_iterations if max_iterations is not None else 4 * graph.n + 8
    remaining_degree: Dict[int, int] = {
        v: graph.degree(v) for v in graph.vertices()
    }
    classes: Dict[int, int] = {}
    alive = set(graph.vertices())
    wave = 0

    while alive:
        wave += 1
        if wave > cap:
            raise DecompositionError(
                f"H-partition stalled: threshold {threshold} too small"
            )
        leaving = [v for v in alive if remaining_degree[v] <= threshold]
        if not leaving:
            raise DecompositionError(
                f"H-partition stalled: threshold {threshold} too small "
                f"(no vertex of degree <= {threshold} remains)"
            )
        for v in leaving:
            classes[v] = wave
        leaving_set = set(leaving)
        alive -= leaving_set
        for v in leaving:
            for _eid, other in graph.incident(v):
                if other in alive:
                    remaining_degree[other] -= 1
        counter.charge(1, "H-partition wave")

    return HPartition(classes, threshold)


def acyclic_orientation(
    graph: MultiGraph,
    partition: HPartition,
    rounds: Optional[RoundCounter] = None,
) -> Dict[int, int]:
    """Orient low class -> high class, ties by vertex id; one round."""
    counter = ensure_counter(rounds)
    classes = partition.classes
    orientation: Dict[int, int] = {}
    for eid, u, v in graph.edges():
        cu, cv = classes[u], classes[v]
        if (cu, u) < (cv, v):
            orientation[eid] = u
        else:
            orientation[eid] = v
    counter.charge(1, "orientation")
    return orientation


def degeneracy_ordering(graph: MultiGraph) -> Tuple[int, List[int]]:
    """Delete-min loop: always remove the vertex minimizing
    ``(remaining degree, vertex id)``; returns ``(d, order)``."""
    degree = {v: graph.degree(v) for v in graph.vertices()}
    removed: Set[int] = set()
    heap = [(deg, v) for v, deg in degree.items()]
    heapq.heapify(heap)
    order: List[int] = []
    degeneracy = 0
    while heap:
        deg, vertex = heapq.heappop(heap)
        if vertex in removed or deg != degree[vertex]:
            continue  # stale heap entry
        removed.add(vertex)
        order.append(vertex)
        degeneracy = max(degeneracy, deg)
        for _eid, other in graph.incident(vertex):
            if other not in removed:
                degree[other] -= 1
                heapq.heappush(heap, (degree[other], other))
    return degeneracy, order


def degeneracy_orientation(graph: MultiGraph) -> Tuple[int, Dict[int, int]]:
    """Orient each edge from the endpoint peeled earlier."""
    degeneracy, order = degeneracy_ordering(graph)
    position = {v: i for i, v in enumerate(order)}
    orientation = {
        eid: (u if position[u] < position[v] else v)
        for eid, u, v in graph.edges()
    }
    return degeneracy, orientation
