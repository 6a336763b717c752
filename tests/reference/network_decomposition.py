"""Reference network decompositions on the dict adjacency: the doubling
ball carve (on a materialized ``G^k`` when ``power > 1``), the MPX
random-shift sweep and the cut-edge scan."""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Set, Tuple

from repro.decomposition.network_decomposition import NetworkDecomposition
from repro.errors import DecompositionError
from repro.graph.multigraph import MultiGraph
from repro.local.rounds import RoundCounter, ensure_counter
from repro.rng import SeedLike, make_rng

from .traversal import power_graph


def network_decomposition(
    graph: MultiGraph,
    rounds: Optional[RoundCounter] = None,
    radius_cost: int = 1,
    power: int = 1,
) -> NetworkDecomposition:
    """Ball carving of ``G^power``; ``G^power`` is built first."""
    counter = ensure_counter(rounds)
    n = graph.n
    if n == 0:
        return NetworkDecomposition([])
    if power > 1:
        graph = power_graph(graph, power)
    classes = _decompose_doubling(graph, n)
    log_n = max(1, math.ceil(math.log2(n + 1)))
    counter.charge(log_n * log_n * max(1, radius_cost), "network decomposition")
    return NetworkDecomposition(classes)


def _decompose_doubling(graph: MultiGraph, n: int) -> List[List[List[int]]]:
    """Carve doubling balls seeded at the minimum unvisited id."""
    remaining: Set[int] = set(graph.vertices())
    classes: List[List[List[int]]] = []
    guard = 2 * max(1, math.ceil(math.log2(n + 1))) + 4

    while remaining:
        if len(classes) >= guard:
            raise DecompositionError("network decomposition did not converge")
        clusters: List[List[int]] = []
        unvisited = set(remaining)
        while unvisited:
            seed_vertex = min(unvisited)
            ball, shell = grow_doubling_ball(graph, seed_vertex, unvisited)
            clusters.append(sorted(ball))
            unvisited -= ball
            unvisited -= shell
            remaining -= ball
        classes.append(clusters)
    return classes


def grow_doubling_ball(
    graph: MultiGraph, center: int, allowed: Set[int]
) -> Tuple[Set[int], Set[int]]:
    """Grow a BFS ball inside ``allowed`` until the next shell would not
    double it; return (ball, next shell)."""
    ball: Set[int] = {center}
    frontier: Set[int] = {center}
    while True:
        shell: Set[int] = set()
        for v in frontier:
            for other in graph.neighbors(v):
                if other in allowed and other not in ball:
                    shell.add(other)
        if not shell:
            return ball, set()
        if len(ball) + len(shell) <= 2 * len(ball):
            return ball, shell
        ball |= shell
        frontier = shell


def partial_network_decomposition(
    graph: MultiGraph, beta: float, seed: SeedLike = None
) -> Dict[int, int]:
    """MPX random-shift clustering (vertex -> cluster head): a Dijkstra
    sweep with unit edges and start times -shift."""
    rng = make_rng(seed)
    shift: Dict[int, float] = {
        v: rng.expovariate(beta) for v in graph.vertices()
    }
    best: Dict[int, float] = {}
    head_of: Dict[int, int] = {}
    heap: List[Tuple[float, int, int]] = []
    for v in graph.vertices():
        start = -shift[v]
        best[v] = start
        head_of[v] = v
        heapq.heappush(heap, (start, v, v))
    while heap:
        time, vertex, head = heapq.heappop(heap)
        if head_of[vertex] != head or best[vertex] != time:
            continue
        for other in graph.neighbors(vertex):
            candidate = time + 1.0
            if candidate < best.get(other, math.inf):
                best[other] = candidate
                head_of[other] = head
                heapq.heappush(heap, (candidate, other, head))
    return head_of


def cut_edges_of_clustering(
    graph: MultiGraph, head_of: Dict[int, int]
) -> List[int]:
    """Edge ids whose endpoints lie in different clusters."""
    try:
        return [
            eid for eid, u, v in graph.edges() if head_of[u] != head_of[v]
        ]
    except KeyError as exc:
        raise DecompositionError(
            f"clustering has no head for vertex {exc.args[0]}"
        ) from None
