"""Network decompositions.

Two constructions, matching the two notions used by the paper
(Section 1.1):

* :func:`network_decomposition` — a ``(D, χ)``-network decomposition
  with ``D = O(log n)`` and ``χ = O(log n)``: a partition of vertices
  into χ classes such that every connected component (cluster) of every
  class has strong diameter at most D.  We use deterministic ball
  carving with a doubling radius: grow a BFS ball until the next shell
  would at most double it, carve the ball as a cluster, and defer its
  boundary shell to later classes.  Each class absorbs at least half of
  the vertices that remain, so O(log n) classes suffice, and each ball
  stops growing within log2(n) steps, so cluster radius is O(log n).
  The LOCAL round cost charged follows the randomized algorithms the
  paper cites ([LS93, EN16]: O(log² n) rounds on G, times the radius
  when applied to a power graph).  With ``power=k`` it carves ``G^k``
  implicitly on G, as Theorem 4.1 simulates it: each shell is a
  depth-≤k BFS over G, and ``G^k`` is never built.

* :func:`partial_network_decomposition` — the ``(O(log n / β), β)``
  *partial* decomposition of [MPX13] (random exponential shifts): a
  partition into clusters of radius O(log n / β) such that each edge is
  cut (endpoints in different clusters) with probability at most β.
  Used by the vertex-color-splitting step (Theorem 4.9).

Both run on the flat-array kernel.  The dict-adjacency carves and sweep
they were ported from are the test suite's reference
(``tests/reference/network_decomposition.py``), and the equivalence
corpus checks cluster-for-cluster identity against it.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from ..errors import DecompositionError
from ..graph.csr import (
    CSRGraph,
    _concat_ranges,
    _sorted_unique,
    snapshot_of,
)
from ..graph.multigraph import MultiGraph
from ..local.rounds import RoundCounter, ensure_counter
from ..rng import SeedLike, make_rng

GraphLike = Union[MultiGraph, CSRGraph]


class NetworkDecomposition:
    """A (D, chi) network decomposition: classes of disjoint clusters."""

    def __init__(self, classes: List[List[List[int]]]) -> None:
        # classes[z] = list of clusters; cluster = sorted vertex list.
        self.classes = classes

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def all_clusters(self) -> List[Tuple[int, List[int]]]:
        """(class index, cluster) pairs, in processing order."""
        return [
            (z, cluster)
            for z, clusters in enumerate(self.classes)
            for cluster in clusters
        ]

    def vertex_classes(self) -> Dict[int, int]:
        """vertex -> class index."""
        out: Dict[int, int] = {}
        for z, clusters in enumerate(self.classes):
            for cluster in clusters:
                for v in cluster:
                    out[v] = z
        return out


def network_decomposition(
    graph: GraphLike,
    rounds: Optional[RoundCounter] = None,
    radius_cost: int = 1,
    power: int = 1,
) -> NetworkDecomposition:
    """Deterministic (O(log n), O(log n)) network decomposition.

    ``radius_cost`` scales the charged rounds when the decomposition is
    computed on a power graph ``G^r`` simulated over G: pass ``r``.
    Charged cost: O(log² n) * radius_cost, following the algorithms
    cited by Theorem 4.1.

    ``power=k`` decomposes ``G^k`` (vertices joined at G-distance ≤ k)
    instead of G, carving it implicitly on G: every doubling shell is
    one depth-≤k BFS over G that relays through every vertex of G, so
    ``G^k`` is never built and a clique component of ``G^k`` costs a
    few BFS sweeps of G.  The clusters are exactly those of
    ``network_decomposition(power_graph(graph, k))``.

    Accepts a :class:`MultiGraph` or a CSR snapshot.  Each class grows
    one BFS ball at a time from the minimum unvisited id until the next
    shell would not double it, carves it and defers its boundary shell.
    """
    if power < 1:
        raise DecompositionError(f"power must be >= 1, got {power}")
    counter = ensure_counter(rounds)
    n = graph.n
    if n == 0:
        return NetworkDecomposition([])

    classes = _decompose_csr(_PowerReach(snapshot_of(graph), power), n)

    log_n = max(1, math.ceil(math.log2(n + 1)))
    counter.charge(log_n * log_n * max(1, radius_cost), "network decomposition")
    return NetworkDecomposition(classes)


class _PowerReach:
    """``N^k[sources]`` in ``G^k``, answered on G by a bounded BFS.

    Adjacency in ``G^k`` is "G-distance ≤ k through *any* vertex of G",
    so the BFS relays through deferred, carved and out-of-class
    vertices alike, and it stops early when a wave reaches nothing new:
    on a component of eccentricity e < k it ends after about e waves,
    not k.  ``_seen`` is scratch shared by every query and cleared on
    the vertices a query touched, so a query costs the edges it
    reaches, never O(n).
    """

    def __init__(self, snapshot: CSRGraph, power: int) -> None:
        self.snapshot = snapshot
        self.power = power
        self._offsets = snapshot.vertex_offsets
        self._nbr = snapshot.neighbor_ids
        n = snapshot.num_vertices
        self._seen = np.zeros(n, dtype=bool)
        self._hit = np.zeros(n, dtype=bool)

    def reach(self, sources: np.ndarray) -> np.ndarray:
        """Dense indices within G-distance ≤ k of ``sources``, sources
        first, then each BFS level ascending."""
        offsets, nbr, seen = self._offsets, self._nbr, self._seen
        seen[sources] = True
        parts = [sources]
        frontier = sources
        for _ in range(self.power):
            half = _concat_ranges(offsets[frontier], offsets[frontier + 1])
            targets = nbr[half]
            targets = targets[~seen[targets]]
            if targets.size == 0:
                break
            frontier = self._distinct(targets)
            seen[frontier] = True
            parts.append(frontier)
        reached = parts[0] if len(parts) == 1 else np.concatenate(parts)
        seen[reached] = False
        return reached

    def _distinct(self, targets: np.ndarray) -> np.ndarray:
        """Ascending distinct ``targets``: a scatter into the scratch
        mask when the wave is dense (O(n + h)), a sort otherwise."""
        if targets.size * 8 < self._hit.size:
            return _sorted_unique(targets)
        hit = self._hit
        hit[targets] = True
        out = np.flatnonzero(hit)
        hit[out] = False
        return out


def _decompose_csr(reach: "_PowerReach", n: int) -> List[List[List[int]]]:
    """Ball carving of ``G^k`` over dense-index masks: each class seeds
    a ball at the minimum unvisited vertex id, grows it until the next
    shell would not double it, carves it and defers the shell.

    Seeds come from a cursor over the id-sorted vertex order: within a
    class the minimum unvisited id only grows, so the scan is amortized
    O(n) per class.  Ball membership uses a stamp array (stamp[i] ==
    current cluster token) so no per-cluster mask is allocated.
    """
    vertex_ids = reach.snapshot.vertex_ids
    order_by_id = np.argsort(vertex_ids, kind="stable").tolist()
    remaining = np.ones(n, dtype=bool)
    stamp = np.full(n, -1, dtype=np.int64)
    classes: List[List[List[int]]] = []
    guard = 2 * max(1, math.ceil(math.log2(n + 1))) + 4
    token = 0

    while remaining.any():
        if len(classes) >= guard:
            raise DecompositionError("network decomposition did not converge")
        clusters: List[List[int]] = []
        unvisited = remaining.copy()
        cursor = 0
        while True:
            while cursor < n and not unvisited[order_by_id[cursor]]:
                cursor += 1
            if cursor == n:
                break
            seed_index = order_by_id[cursor]
            ball, shell = _grow_doubling_ball_csr(
                reach, seed_index, unvisited, stamp, token
            )
            token += 1
            clusters.append(np.sort(vertex_ids[ball]).tolist())
            unvisited[ball] = False
            unvisited[shell] = False
            remaining[ball] = False
        classes.append(clusters)
    return classes


def _grow_doubling_ball_csr(
    reach: "_PowerReach",
    center: int,
    allowed: np.ndarray,
    stamp: np.ndarray,
    token: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Grow a ball from ``center`` inside ``allowed`` in ``G^k`` until
    the next shell would not double it; returns (ball indices,
    next-shell indices).  Each next shell is
    ``N^k(frontier) ∩ allowed`` minus the ball, one depth-≤k sweep of G.
    ``stamp`` marks ball membership with ``token`` (one shared array
    instead of a fresh mask per cluster)."""
    stamp[center] = token
    frontier = np.asarray([center], dtype=np.int64)
    parts = [frontier]
    ball_size = 1
    while True:
        shell = reach.reach(frontier)
        shell = shell[allowed[shell] & (stamp[shell] != token)]
        if shell.size == 0 or ball_size + int(shell.size) <= 2 * ball_size:
            ball = parts[0] if len(parts) == 1 else np.concatenate(parts)
            return ball, shell
        stamp[shell] = token
        parts.append(shell)
        ball_size += int(shell.size)
        frontier = shell


def validate_network_decomposition(
    graph: GraphLike,
    decomposition: NetworkDecomposition,
    max_diameter: int,
    max_classes: int,
) -> None:
    """Raise :class:`DecompositionError` on any violated guarantee.

    Checks: classes partition V; clusters of one class are pairwise
    non-adjacent; every cluster is connected with strong diameter at
    most ``max_diameter``; class count at most ``max_classes``.
    """
    from ..graph.traversal import diameter_of_component

    seen: Set[int] = set()
    if decomposition.num_classes > max_classes:
        raise DecompositionError(
            f"{decomposition.num_classes} classes exceed cap {max_classes}"
        )
    for z, clusters in enumerate(decomposition.classes):
        in_class: Dict[int, int] = {}
        for index, cluster in enumerate(clusters):
            for v in cluster:
                if v in seen:
                    raise DecompositionError(f"vertex {v} in two clusters")
                seen.add(v)
                in_class[v] = index
            diameter = diameter_of_component(graph, cluster)
            if diameter > max_diameter:
                raise DecompositionError(
                    f"cluster diameter {diameter} exceeds {max_diameter}"
                )
        for v, index in in_class.items():
            for other in graph.neighbors(v):
                if other in in_class and in_class[other] != index:
                    raise DecompositionError(
                        f"clusters {index} and {in_class[other]} of class {z} "
                        f"are adjacent via edge {v}-{other}"
                    )
    if seen != set(graph.vertices()):
        raise DecompositionError("decomposition does not cover all vertices")


# ----------------------------------------------------------------------
# Partial network decomposition (Miller–Peng–Xu random shifts)
# ----------------------------------------------------------------------


def partial_network_decomposition(
    graph: GraphLike,
    beta: float,
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
) -> Dict[int, int]:
    """MPX random-shift clustering: vertex -> cluster head.

    Each vertex ``u`` draws ``δ_u ~ Exponential(β)``; vertex ``v`` joins
    the cluster of the head ``u`` minimizing ``d(u, v) - δ_u``.  Cluster
    radius is ``O(log n / β)`` w.h.p. and every edge is cut with
    probability at most ~β.  Charged rounds: O(log n / β).

    Shifts are drawn in vertex insertion order and the heap is ordered
    by ``(time, vertex id, head id)``, so a given seed fixes the
    clustering; the Dijkstra sweep reads flat index arrays.
    """
    if not (0.0 < beta <= 1.0):
        raise DecompositionError(f"beta must be in (0, 1], got {beta}")
    counter = ensure_counter(rounds)
    rng = make_rng(seed)
    n = graph.n
    if n == 0:
        return {}

    head_of = _mpx_sweep_csr(snapshot_of(graph), beta, rng)

    expected_radius = math.ceil(math.log(max(n, 2)) / beta) + 1
    counter.charge(expected_radius, "MPX partial network decomposition")
    return head_of


def _mpx_sweep_csr(snapshot: CSRGraph, beta: float, rng) -> Dict[int, int]:
    """Dijkstra sweep with unit edges and start times -shift, over
    flat adjacency arrays.

    Heap entries carry ``(time, vertex id, head id)`` first, with the
    dense indices appended as payload so the state arrays never need an
    id lookup.  Parallel half-edges relax twice, but the second attempt
    always fails the strict ``<`` test, so the pushed multiset is that
    of a sweep over simple adjacency.
    """
    n = snapshot.num_vertices
    vids = snapshot.vertex_id_list()
    offsets, nbr = snapshot.adjacency_lists()
    # Draw order: vertex insertion order.
    best: List[float] = [-rng.expovariate(beta) for _ in range(n)]
    head: List[int] = list(range(n))
    heap = [(best[i], vids[i], vids[i], i, i) for i in range(n)]
    heapq.heapify(heap)
    heappop = heapq.heappop
    heappush = heapq.heappush
    while heap:
        time, _vid, head_vid, index, head_index = heappop(heap)
        if head[index] != head_index or best[index] != time:
            continue
        candidate = time + 1.0
        for half in range(offsets[index], offsets[index + 1]):
            j = nbr[half]
            if candidate < best[j]:
                best[j] = candidate
                head[j] = head_index
                heappush(heap, (candidate, vids[j], head_vid, j, head_index))
    return {vids[i]: vids[head[i]] for i in range(n)}


def cut_edges_of_clustering(
    graph: GraphLike, head_of: Dict[int, int]
) -> List[int]:
    """Edge ids whose endpoints lie in different MPX clusters.

    A clustering that misses a vertex of the graph raises
    :class:`DecompositionError` naming the vertex, instead of leaking a
    bare ``KeyError`` out of the gather.
    """
    snap = snapshot_of(graph)
    if snap.num_edges == 0:
        return []
    try:
        heads = np.fromiter(
            (head_of[v] for v in snap.vertex_id_list()),
            dtype=np.int64,
            count=snap.num_vertices,
        )
    except KeyError as exc:
        raise DecompositionError(
            f"clustering has no head for vertex {exc.args[0]}"
        ) from None
    cut = heads[snap.edge_u] != heads[snap.edge_v]
    return snap.edge_id[cut].tolist()
