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
  implicitly on G, as Theorem 4.1 simulates it: each shell or wave is
  a depth-≤k relaxation over G, and ``G^k`` is never built.

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
from ..parallel.bfs import resolve_claims
from ..rng import SeedLike, make_rng

GraphLike = Union[MultiGraph, CSRGraph]

#: ball-growth rules: "doubling" carves one ball at a time (grow until
#: the next shell stops doubling it), "simultaneous" grows every live
#: seed at once on staggered starts and resolves contested vertices by
#: (level, seed id)
CARVE_RULES = ("doubling", "simultaneous")


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
    carve_rule: str = "doubling",
    power: int = 1,
) -> NetworkDecomposition:
    """Deterministic (O(log n), O(log n)) network decomposition.

    ``radius_cost`` scales the charged rounds when the decomposition is
    computed on a power graph ``G^r`` simulated over G: pass ``r``.
    Charged cost: O(log² n) * radius_cost, following the algorithms
    cited by Theorem 4.1.

    ``power=k`` decomposes ``G^k`` (vertices joined at G-distance ≤ k)
    instead of G, carving it implicitly on G: every doubling shell,
    simultaneous wave and boundary check is one depth-≤k relaxation
    over G that relays through every vertex of G, so ``G^k`` is never
    built and a clique component of ``G^k`` costs a few BFS sweeps of
    G.  The clusters are exactly those of
    ``network_decomposition(power_graph(graph, k))``.

    Accepts a :class:`MultiGraph` or a CSR snapshot.

    ``carve_rule`` picks the ball-growth schedule:

    * ``"doubling"`` (default) — one ball at a time: grow a BFS ball
      from the minimum unvisited id until the next shell would not
      double it, carve it, defer its boundary shell.
    * ``"simultaneous"`` — every unvisited vertex is a live seed with a
      deterministic hash-derived staggered start; each wave grows every
      live ball one BFS level through a single gather, and contested
      vertices resolve by ``(level, seed id)`` — the tie-break
      :func:`_mpx_sweep_csr` uses.
    """
    if carve_rule not in CARVE_RULES:
        raise DecompositionError(
            f"unknown carve_rule {carve_rule!r}; expected one of {CARVE_RULES}"
        )
    if power < 1:
        raise DecompositionError(f"power must be >= 1, got {power}")
    counter = ensure_counter(rounds)
    n = graph.n
    if n == 0:
        return NetworkDecomposition([])

    reach = _PowerReach(snapshot_of(graph), power)
    if carve_rule == "simultaneous":
        classes = _decompose_simultaneous_csr(reach, n)
    else:
        classes = _decompose_csr(reach, n)

    log_n = max(1, math.ceil(math.log2(n + 1)))
    counter.charge(log_n * log_n * max(1, radius_cost), "network decomposition")
    return NetworkDecomposition(classes)


#: ``_PowerReach`` key of a vertex no source has reached yet
_NO_KEY = np.iinfo(np.int64).max


class _PowerReach:
    """``G^k`` queries answered on G by a bounded relaxation.

    Every query the csr carves make of ``G^k`` is one question: for each
    vertex, the minimum key over ``sources`` within G-distance ≤ k.
    Adjacency in ``G^k`` is "G-distance ≤ k through *any* vertex of G",
    so the relaxation relays through deferred, carved and out-of-class
    vertices alike.  A wave pushes only keys that improved, so the sweep
    stops when nothing improves: on a component of eccentricity e < k
    it ends after about e waves, not k.  ``best`` is scratch shared by
    every query and restored on the vertices a query touched, so a query
    costs the edges it reaches, never O(n).
    """

    def __init__(self, snapshot: CSRGraph, power: int) -> None:
        self.snapshot = snapshot
        self.power = power
        self._offsets = snapshot.vertex_offsets
        self._nbr = snapshot.neighbor_ids
        n = snapshot.num_vertices
        self._best = np.full(n, _NO_KEY, dtype=np.int64)
        self._hit = np.zeros(n, dtype=bool)

    def min_keys(
        self, sources: np.ndarray, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(reached, best)``: the dense indices within G-distance ≤ k
        of the (distinct) ``sources``, and for each the minimum key over
        the sources that reach it.  ``reached`` starts with ``sources``
        in the given order."""
        offsets, nbr, best = self._offsets, self._nbr, self._best
        best[sources] = keys
        parts = [sources]
        frontier = sources
        for _ in range(self.power):
            starts = offsets[frontier]
            ends = offsets[frontier + 1]
            targets = nbr[_concat_ranges(starts, ends)]
            offered = np.repeat(best[frontier], ends - starts)
            better = offered < best[targets]
            targets = targets[better]
            if targets.size == 0:
                break
            improved = self._distinct(targets)
            parts.append(improved[best[improved] == _NO_KEY])
            np.minimum.at(best, targets, offered[better])
            frontier = improved
        reached = parts[0] if len(parts) == 1 else np.concatenate(parts)
        found = best[reached]
        best[reached] = _NO_KEY
        return reached, found

    def reach(self, sources: np.ndarray) -> np.ndarray:
        """``N^k[sources]`` in G, sources included: :meth:`min_keys`
        with one shared key, where a key improves exactly when it first
        arrives, so each wave is a plain BFS level."""
        offsets, nbr, best = self._offsets, self._nbr, self._best
        best[sources] = 0
        parts = [sources]
        frontier = sources
        for _ in range(self.power):
            half = _concat_ranges(offsets[frontier], offsets[frontier + 1])
            targets = nbr[half]
            targets = targets[best[targets] == _NO_KEY]
            if targets.size == 0:
                break
            frontier = self._distinct(targets)
            best[frontier] = 0
            parts.append(frontier)
        reached = parts[0] if len(parts) == 1 else np.concatenate(parts)
        best[reached] = _NO_KEY
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


# ----------------------------------------------------------------------
# Simultaneous multi-ball carving (carve_rule="simultaneous")
# ----------------------------------------------------------------------
#
# Per class, every unvisited vertex is a live seed.  Seed ``v`` gets a
# deterministic integer shift delta(v, class) with geometric tail
# P(delta >= k) = 2^-k, capped at T = ceil(log2(|unvisited| + 1)), and
# activates (claims itself) at wave ``T - delta`` if still unclaimed.
# Each wave, every vertex claimed in the previous wave proposes its
# unclaimed neighbors; all of a wave's proposals (growth + activations)
# resolve jointly per target by minimum seed id — priority
# ``(level, seed id)``, the tie-break the MPX array-Dijkstra uses.
# This is the integer-shift analog of [MPX13]'s exponential shifts
# (and of the [LS93]/[EN16] shape behind Theorem 4.1): every vertex is
# claimed by wave T (its own activation wins if nothing else did), and
# claims extend only from already-claimed neighbors, so each ball is
# connected with radius <= delta(seed) <= T from its seed.
#
# Each claim records its *parent*: among the winning seed's proposers
# the one with minimum id (activations parent themselves), so the
# parent chain walks back to the seed along claim waves.  A vertex is
# *carved* (kept in the class) when (a) no neighbor sits in a ball
# with a smaller seed id — the one-sided boundary rule: if two
# adjacent vertices end in different balls, only the one in the
# larger-id ball defers to the next class — and (b) its whole parent
# chain is kept.  (a) makes same-class clusters pairwise non-adjacent
# (the smaller-id side of any cross-ball edge keeps, the larger
# defers), (b) keeps each cluster connected with an in-cluster path of
# length <= T to its seed, so strong cluster diameter is <= 2T.  The
# minimum-id surviving seed can never defer, so every class makes
# progress; the convergence guard bounds the class count exactly as
# for the doubling rule.
#
# The kernel runs this schedule with a vectorized hash and sort-based
# claim resolution (`resolve_claims`), which is order-free; the test
# suite's reference replays it step for step with scalar hashes and
# per-wave dicts, bit for bit.

_SHIFT_MIX_1 = 0x9E3779B97F4A7C15
_SHIFT_MIX_2 = 0xBF58476D1CE4E5B9
_SHIFT_MIX_3 = 0x94D049BB133111EB
_CLASS_SALT = 0xC2B2AE3D27D4EB4F
_MASK64 = (1 << 64) - 1

#: owner-array sentinels
_OUTSIDE = -2
_UNCLAIMED = -1


def _carve_shift_array(
    vids: np.ndarray, class_index: int, cap: int
) -> np.ndarray:
    """Staggered-start shifts: the trailing-zero count of a
    splitmix64-style hash of ``(vertex id, class index)``, capped at
    ``cap``, in uint64 wraparound arithmetic (equal, element for
    element, to the masked Python-int hash of the test reference)."""
    h = (vids.astype(np.uint64) + np.uint64(1)) * np.uint64(_SHIFT_MIX_1)
    h ^= np.uint64(((class_index + 1) * _CLASS_SALT) & _MASK64)
    h = (h ^ (h >> np.uint64(30))) * np.uint64(_SHIFT_MIX_2)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(_SHIFT_MIX_3)
    h ^= h >> np.uint64(31)
    lsb = h & (~h + np.uint64(1))
    # log2 of an exact power of two: float64 holds every 2^k <= 2^63
    shifts = np.full(h.shape, cap, dtype=np.int64)
    nonzero = lsb != 0
    shifts[nonzero] = np.minimum(
        np.log2(lsb[nonzero].astype(np.float64)).astype(np.int64), cap
    )
    return shifts


def _decompose_simultaneous_csr(
    reach: "_PowerReach", n: int
) -> List[List[List[int]]]:
    """Simultaneous carve of ``G^k`` over dense-index arrays.

    Ball priority compares seed *ids*, so the csr path works in id
    ranks (position in the id-sorted vertex order): rank comparisons
    equal id comparisons, and every state array stays dense-indexed.
    """
    vertex_ids = reach.snapshot.vertex_ids
    order_by_id = np.argsort(vertex_ids, kind="stable")
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[order_by_id] = np.arange(n, dtype=np.int64)

    remaining = np.ones(n, dtype=bool)
    owner = np.empty(n, dtype=np.int64)
    parent = np.empty(n, dtype=np.int64)
    kept = np.zeros(n, dtype=bool)
    classes: List[List[List[int]]] = []
    guard = 2 * max(1, math.ceil(math.log2(n + 1))) + 4

    while remaining.any():
        if len(classes) >= guard:
            raise DecompositionError("network decomposition did not converge")
        clusters, kept_indices = _carve_class_simultaneous_csr(
            reach,
            remaining,
            len(classes),
            rank_of,
            order_by_id,
            owner,
            parent,
            kept,
        )
        classes.append(clusters)
        remaining[kept_indices] = False
    return classes


def _carve_class_simultaneous_csr(
    reach: "_PowerReach",
    remaining: np.ndarray,
    class_index: int,
    rank_of: np.ndarray,
    order_by_id: np.ndarray,
    owner: np.ndarray,
    parent: np.ndarray,
    kept: np.ndarray,
) -> Tuple[List[List[int]], np.ndarray]:
    """Grow, bound and cascade one simultaneous class of ``G^k``;
    returns ``(clusters, kept dense indices)``.  ``owner``/``parent``/
    ``kept`` are reusable scratch arrays owned by the driver."""
    vertex_ids = reach.snapshot.vertex_ids
    n = reach.snapshot.num_vertices

    live = np.flatnonzero(remaining)
    cap = max(1, math.ceil(math.log2(live.size + 1)))
    starts = cap - _carve_shift_array(vertex_ids[live], class_index, cap)
    owner[:] = _OUTSIDE
    owner[live] = _UNCLAIMED

    # Bucket activations by start wave (one argsort, then slices).
    act_order = np.argsort(starts, kind="stable")
    act_sorted = live[act_order]
    bounds = np.searchsorted(
        starts[act_order], np.arange(cap + 2, dtype=np.int64)
    )

    waves: List[np.ndarray] = []
    frontier = np.empty(0, dtype=np.int64)
    claimed = 0
    first_wave = int(starts.min()) if live.size else cap + 1
    for wave in range(first_wave, cap + 1):
        if frontier.size:
            # Proposal priority packs (seed rank, proposer rank) into
            # one key — the minimum is the (seed id, proposer id)
            # lexicographic winner, because ranks order exactly like
            # ids.  Each unclaimed target takes the
            # minimum over the proposers within G-distance k.
            targets, priorities = reach.min_keys(
                frontier, owner[frontier] * n + rank_of[frontier]
            )
            open_targets = owner[targets] == _UNCLAIMED
            targets = targets[open_targets]
            priorities = priorities[open_targets]
        else:
            targets = np.empty(0, dtype=np.int64)
            priorities = np.empty(0, dtype=np.int64)
        activations = act_sorted[bounds[wave] : bounds[wave + 1]]
        activations = activations[owner[activations] == _UNCLAIMED]
        if activations.size:
            self_rank = rank_of[activations]
            targets = np.concatenate((targets, activations))
            priorities = np.concatenate(
                (priorities, self_rank * n + self_rank)
            )
        if targets.size == 0:
            continue
        won_targets, won_priorities = resolve_claims(
            targets, priorities, n * n
        )
        owner[won_targets] = won_priorities // n
        parent[won_targets] = order_by_id[won_priorities % n]
        waves.append(won_targets)
        frontier = won_targets
        claimed += won_targets.size
        if claimed == live.size:
            break

    # One-sided boundary rule: one relaxation over the class finds,
    # per vertex, the smallest owner within G-distance k (its own
    # included); a vertex adjacent in G^k to a smaller-seed ball defers.
    # Every live vertex is claimed by now, and ``reached`` starts with
    # the sources, so its first ``live.size`` keys line up with ``live``.
    mine = owner[live]
    _reached, smallest = reach.min_keys(live, mine)
    kept[live] = smallest[: live.size] == mine

    # Parent-chain cascade in claim-wave order (parents are claimed
    # strictly earlier, so their verdict is already final): a vertex
    # survives only if its whole chain back to the seed does.
    for wave_vertices in waves:
        kept[wave_vertices] &= kept[parent[wave_vertices]] | (
            owner[wave_vertices] == rank_of[wave_vertices]
        )

    kept_indices = np.flatnonzero(kept & remaining)
    if kept_indices.size == 0:
        return [], kept_indices
    owners = owner[kept_indices]
    order = np.lexsort((vertex_ids[kept_indices], owners))
    grouped = kept_indices[order]
    group_owner = owners[order]
    cuts = np.flatnonzero(group_owner[1:] != group_owner[:-1]) + 1
    flat = vertex_ids[grouped].tolist()
    edges = [0, *cuts.tolist(), len(flat)]
    clusters = [flat[a:b] for a, b in zip(edges[:-1], edges[1:])]
    return clusters, kept_indices


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
