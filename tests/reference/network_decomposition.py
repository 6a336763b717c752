"""Reference network decompositions on the dict adjacency: the doubling
and simultaneous ball carves (on a materialized ``G^k`` when
``power > 1``), the MPX random-shift sweep and the cut-edge scan."""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Set, Tuple

from repro.decomposition.network_decomposition import (
    _CLASS_SALT,
    _MASK64,
    _SHIFT_MIX_1,
    _SHIFT_MIX_2,
    _SHIFT_MIX_3,
    NetworkDecomposition,
)
from repro.errors import DecompositionError
from repro.graph.multigraph import MultiGraph
from repro.local.rounds import RoundCounter, ensure_counter
from repro.rng import SeedLike, make_rng

from .traversal import power_graph


def network_decomposition(
    graph: MultiGraph,
    rounds: Optional[RoundCounter] = None,
    radius_cost: int = 1,
    carve_rule: str = "doubling",
    power: int = 1,
) -> NetworkDecomposition:
    """Ball carving of ``G^power``; ``G^power`` is built first."""
    counter = ensure_counter(rounds)
    n = graph.n
    if n == 0:
        return NetworkDecomposition([])
    if power > 1:
        graph = power_graph(graph, power)
    if carve_rule == "simultaneous":
        classes = _decompose_simultaneous(graph, n)
    else:
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


def carve_shift(vid: int, class_index: int, cap: int) -> int:
    """Staggered-start shift in exact integer arithmetic: trailing-zero
    count of a splitmix64-style hash of ``(vertex id, class index)``,
    capped at ``cap``."""
    h = (((vid + 1) * _SHIFT_MIX_1) & _MASK64) ^ (
        ((class_index + 1) * _CLASS_SALT) & _MASK64
    )
    h = ((h ^ (h >> 30)) * _SHIFT_MIX_2) & _MASK64
    h = ((h ^ (h >> 27)) * _SHIFT_MIX_3) & _MASK64
    h ^= h >> 31
    if h == 0:
        return cap
    tz = (h & -h).bit_length() - 1
    return tz if tz < cap else cap


def _decompose_simultaneous(
    graph: MultiGraph, n: int
) -> List[List[List[int]]]:
    remaining: Set[int] = set(graph.vertices())
    classes: List[List[List[int]]] = []
    guard = 2 * max(1, math.ceil(math.log2(n + 1))) + 4

    while remaining:
        if len(classes) >= guard:
            raise DecompositionError("network decomposition did not converge")
        kept = _carve_class_simultaneous(graph, remaining, len(classes))
        clusters = [sorted(members) for _seed, members in sorted(kept.items())]
        classes.append(clusters)
        for members in kept.values():
            remaining.difference_update(members)
    return classes


def _carve_class_simultaneous(
    graph: MultiGraph, live: Set[int], class_index: int
) -> Dict[int, List[int]]:
    """One simultaneous class: seed -> kept members (fully deferred
    balls simply contribute no entry)."""
    cap = max(1, math.ceil(math.log2(len(live) + 1)))
    by_start: Dict[int, List[int]] = {}
    for v in live:
        start = cap - carve_shift(v, class_index, cap)
        by_start.setdefault(start, []).append(v)

    owner: Dict[int, int] = {}
    parent: Dict[int, int] = {}
    waves: List[List[int]] = []
    frontier: List[int] = []
    for wave in range(cap + 1):
        # proposal = (seed id, proposer id); the minimum pair wins the
        # target, so ownership goes to the smallest seed and the parent
        # link to that seed's smallest-id proposer.
        proposals: Dict[int, Tuple[int, int]] = {}
        for u in frontier:
            candidate = (owner[u], u)
            for other in graph.neighbors(u):
                if other in live and other not in owner:
                    best = proposals.get(other)
                    if best is None or best > candidate:
                        proposals[other] = candidate
        for v in by_start.get(wave, ()):
            if v not in owner:
                best = proposals.get(v)
                if best is None or best > (v, v):
                    proposals[v] = (v, v)
        for target, (seed, proposer) in proposals.items():
            owner[target] = seed
            parent[target] = proposer
        frontier = sorted(proposals)
        if frontier:
            waves.append(frontier)
        if len(owner) == len(live):
            break

    # Boundary rule + parent-chain cascade, in claim-wave order
    # (parents are claimed strictly earlier, so their verdict is in).
    kept: Set[int] = set()
    for wave_vertices in waves:
        for v in wave_vertices:
            mine = owner[v]
            if any(
                other in live and owner[other] < mine
                for other in graph.neighbors(v)
            ):
                continue
            if mine == v or parent[v] in kept:
                kept.add(v)

    clusters: Dict[int, List[int]] = {}
    for v in kept:
        clusters.setdefault(owner[v], []).append(v)
    return clusters


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
