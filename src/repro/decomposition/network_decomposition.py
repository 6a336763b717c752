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
  when applied to a power graph).

* :func:`partial_network_decomposition` — the ``(O(log n / β), β)``
  *partial* decomposition of [MPX13] (random exponential shifts): a
  partition into clusters of radius O(log n / β) such that each edge is
  cut (endpoints in different clusters) with probability at most β.
  Used by the vertex-color-splitting step (Theorem 4.9).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from ..errors import DecompositionError
from ..graph.csr import CSRGraph, _concat_ranges, resolve_backend, snapshot_of
from ..graph.multigraph import MultiGraph
from ..local.rounds import RoundCounter, ensure_counter
from ..parallel.bfs import resolve_claims
from ..parallel.engine import WaveEngine, engine_for
from ..rng import SeedLike, make_rng

GraphLike = Union[MultiGraph, CSRGraph]

#: backends that run on the flat-array kernel ("parallel" additionally
#: routes ball-growth shells through the shared wave engine)
_KERNEL = ("csr", "parallel")

#: ball-growth rules: "doubling" carves one ball at a time (grow until
#: the next shell stops doubling it), "simultaneous" grows every live
#: seed at once on staggered starts and resolves contested vertices by
#: (level, seed id)
CARVE_RULES = ("doubling", "simultaneous")


def _resolve_backend(graph: GraphLike, backend: str) -> str:
    # Shared dispatch (and auto cutoff) with the traversal layer; this
    # layer reports unknown names in its own error taxonomy.
    return resolve_backend(graph, backend, DecompositionError)


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
    backend: str = "auto",
    workers: int = 0,
    carve_rule: str = "doubling",
) -> NetworkDecomposition:
    """Deterministic (O(log n), O(log n)) network decomposition.

    ``radius_cost`` scales the charged rounds when the decomposition is
    (conceptually) computed on a power graph ``G^r`` simulated over G:
    pass ``r``.  Charged cost: O(log² n) * radius_cost, following the
    algorithms cited by Theorem 4.1.

    Accepts a :class:`MultiGraph` or a CSR snapshot (e.g. the output of
    ``power_graph(..., backend="csr")``); the csr backend produces
    exactly the clusters of the dict reference path.

    ``carve_rule`` picks the ball-growth schedule:

    * ``"doubling"`` (default) — one ball at a time: grow a BFS ball
      from the minimum unvisited id until the next shell would not
      double it, carve it, defer its boundary shell.  The carve order
      is inherently sequential (each ball's shell masks later seeds),
      so ``backend="parallel"`` only fans out individual shell gathers.
    * ``"simultaneous"`` — every unvisited vertex is a live seed with a
      deterministic hash-derived staggered start; each wave grows every
      live ball one BFS level through a single fanned gather, and
      contested vertices resolve by ``(level, seed id)`` — the
      tie-break :func:`_mpx_sweep_csr` uses — so clusters are
      bit-identical for every worker count x shard plan while the wave
      finally has enough frontier for the engine to fan out.
    """
    if carve_rule not in CARVE_RULES:
        raise DecompositionError(
            f"unknown carve_rule {carve_rule!r}; expected one of {CARVE_RULES}"
        )
    counter = ensure_counter(rounds)
    n = graph.n
    if n == 0:
        return NetworkDecomposition([])

    resolved = _resolve_backend(graph, backend)
    if resolved in _KERNEL:
        snap = snapshot_of(graph)
        engine = (
            engine_for(snap, workers) if resolved == "parallel" else None
        )
        if carve_rule == "simultaneous":
            classes = _decompose_simultaneous_csr(snap, n, engine)
        else:
            classes = _decompose_csr(snap, n, engine)
    elif carve_rule == "simultaneous":
        classes = _decompose_simultaneous_dict(graph, n)
    else:
        classes = _decompose_dict(graph, n)

    log_n = max(1, math.ceil(math.log2(n + 1)))
    counter.charge(log_n * log_n * max(1, radius_cost), "network decomposition")
    return NetworkDecomposition(classes)


def _decompose_dict(graph: GraphLike, n: int) -> List[List[List[int]]]:
    """Reference ball carving on the dict adjacency."""
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
            ball, shell = _grow_doubling_ball(graph, seed_vertex, unvisited)
            clusters.append(sorted(ball))
            unvisited -= ball
            unvisited -= shell
            remaining -= ball
        classes.append(clusters)
    return classes


def _decompose_csr(
    snapshot: CSRGraph, n: int, engine: Optional[WaveEngine] = None
) -> List[List[List[int]]]:
    """Ball carving over dense-index masks; cluster-for-cluster equal to
    :func:`_decompose_dict` (seeds by minimum vertex id, identical
    doubling rule).

    Seeds come from a cursor over the id-sorted vertex order: within a
    class the minimum unvisited id only grows, so the scan is amortized
    O(n) per class.  Ball membership uses a stamp array (stamp[i] ==
    current cluster token) so no per-cluster mask is allocated.  An
    optional engine fans each shell's half-edge gather out across
    shard-aligned frontier groups (shell sets are dedup-order-free, so
    clusters are identical for every worker count).
    """
    vertex_ids = snapshot.vertex_ids
    order_by_id = np.argsort(vertex_ids, kind="stable").tolist()
    remaining = np.ones(n, dtype=bool)
    stamp = np.full(n, -1, dtype=np.int64)
    scratch = np.zeros(n, dtype=bool)
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
                snapshot, seed_index, unvisited, stamp, token, engine, scratch
            )
            token += 1
            clusters.append(np.sort(vertex_ids[ball]).tolist())
            unvisited[ball] = False
            unvisited[shell] = False
            remaining[ball] = False
        classes.append(clusters)
    return classes


def _grow_doubling_ball(
    graph: GraphLike, center: int, allowed: Set[int]
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


def _grow_doubling_ball_csr(
    snapshot: CSRGraph,
    center: int,
    allowed: np.ndarray,
    stamp: np.ndarray,
    token: int,
    engine: Optional[WaveEngine] = None,
    scratch: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Frontier-vectorized :func:`_grow_doubling_ball` over dense
    indices; returns (ball indices, next-shell indices).  ``stamp``
    marks ball membership with ``token`` (one shared array instead of a
    fresh mask per cluster).  ``scratch`` is an all-False bool mask the
    dense-shell path borrows for its scatter dedup (and restores before
    returning) — one allocation per decomposition instead of one per
    shell.  With an engine, each shell's gather is one wave:
    shard-phase kernels slice the frozen CSR arrays, the reconcile
    dedups and filters — shell sets are order-free, so the ball is
    identical under any worker count."""
    n = snapshot.num_vertices
    offsets = snapshot.vertex_offsets
    nbr = snapshot.neighbor_ids
    stamp[center] = token
    frontier = np.asarray([center], dtype=np.int64)
    parts = [frontier]
    ball_size = 1
    while True:
        if engine is not None and engine.workers > 1 and frontier.size >= 64:
            # Fan the shell gather out only when threads can overlap
            # AND the frontier is big enough that even the work-list
            # accounting (summing its half-edge counts) is noise —
            # most balls are tiny and sequential, and paying that
            # accounting per shell measurably slowed the carve.
            cost = int((offsets[frontier + 1] - offsets[frontier]).sum())
            candidates = engine.gather(
                lambda part: nbr[
                    _concat_ranges(offsets[part], offsets[part + 1])
                ],
                frontier,
                cost,
            )
        else:
            half = _concat_ranges(offsets[frontier], offsets[frontier + 1])
            candidates = nbr[half]
        if candidates.size > n >> 2:
            # Dense frontier: a scatter mask dedups in O(n + |half|),
            # beating unique's O(|half| log |half|) sort.
            hit = scratch if scratch is not None else np.zeros(n, dtype=bool)
            hit[candidates] = True
            shell = np.flatnonzero(hit & allowed & (stamp != token))
            if scratch is not None:
                hit[candidates] = False
        else:
            shell = np.unique(candidates)
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
# Both backends run this schedule step for step: the dict path with
# scalar hashes and per-wave dicts, the csr path with the vectorized
# hash and sort-based claim resolution (`resolve_claims`), which is
# order-free — so dict == csr == parallel holds bit for bit for every
# worker count and shard plan.

_SHIFT_MIX_1 = 0x9E3779B97F4A7C15
_SHIFT_MIX_2 = 0xBF58476D1CE4E5B9
_SHIFT_MIX_3 = 0x94D049BB133111EB
_CLASS_SALT = 0xC2B2AE3D27D4EB4F
_MASK64 = (1 << 64) - 1

#: owner-array sentinels for the csr path
_OUTSIDE = -2
_UNCLAIMED = -1


def _carve_shift(vid: int, class_index: int, cap: int) -> int:
    """Scalar staggered-start shift: trailing-zero count of a
    splitmix64-style hash of ``(vertex id, class index)``, capped.
    Exact integer arithmetic — :func:`_carve_shift_array` reproduces it
    bit for bit in numpy uint64."""
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


def _carve_shift_array(
    vids: np.ndarray, class_index: int, cap: int
) -> np.ndarray:
    """Vectorized :func:`_carve_shift` (uint64 wraparound arithmetic =
    the scalar path's masked python ints, element for element)."""
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


def _decompose_simultaneous_dict(
    graph: GraphLike, n: int
) -> List[List[List[int]]]:
    """Reference simultaneous carve on the dict adjacency."""
    remaining: Set[int] = set(graph.vertices())
    classes: List[List[List[int]]] = []
    guard = 2 * max(1, math.ceil(math.log2(n + 1))) + 4

    while remaining:
        if len(classes) >= guard:
            raise DecompositionError("network decomposition did not converge")
        kept = _carve_class_simultaneous_dict(graph, remaining, len(classes))
        clusters = [sorted(members) for _seed, members in sorted(kept.items())]
        classes.append(clusters)
        for members in kept.values():
            remaining.difference_update(members)
    return classes


def _carve_class_simultaneous_dict(
    graph: GraphLike, live: Set[int], class_index: int
) -> Dict[int, List[int]]:
    """One simultaneous class: seed -> kept members (fully deferred
    balls simply contribute no entry)."""
    cap = max(1, math.ceil(math.log2(len(live) + 1)))
    by_start: Dict[int, List[int]] = {}
    for v in live:
        start = cap - _carve_shift(v, class_index, cap)
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
    # repro: allow(det-set-order) — int-only vertex set built in wave order:
    # int hashes are PYTHONHASHSEED-independent, so the member order is a
    # pure function of the carve sequence; the frozen simultaneous-carve
    # goldens certify exactly this order (sorting would regenerate them).
    for v in kept:
        clusters.setdefault(owner[v], []).append(v)
    return clusters


def _decompose_simultaneous_csr(
    snapshot: CSRGraph, n: int, engine: Optional[WaveEngine] = None
) -> List[List[List[int]]]:
    """Simultaneous carve over dense-index arrays; cluster-for-cluster
    equal to :func:`_decompose_simultaneous_dict`.

    Ball priority compares seed *ids*, so the csr path works in id
    ranks (position in the id-sorted vertex order): rank comparisons
    equal id comparisons, and every state array stays dense-indexed.
    With an engine, each wave's proposal gather and each boundary/
    cascade scan fans out across shard-aligned groups; the reconcile
    (:func:`~repro.parallel.bfs.resolve_claims`) is order-free, so
    clusters are identical for every worker count and shard plan.
    """
    vertex_ids = snapshot.vertex_ids
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
            snapshot,
            remaining,
            len(classes),
            rank_of,
            order_by_id,
            owner,
            parent,
            kept,
            engine,
        )
        classes.append(clusters)
        remaining[kept_indices] = False
    return classes


def _carve_class_simultaneous_csr(
    snapshot: CSRGraph,
    remaining: np.ndarray,
    class_index: int,
    rank_of: np.ndarray,
    order_by_id: np.ndarray,
    owner: np.ndarray,
    parent: np.ndarray,
    kept: np.ndarray,
    engine: Optional[WaveEngine],
) -> Tuple[List[List[int]], np.ndarray]:
    """Grow, bound and cascade one simultaneous class; returns
    ``(clusters, kept dense indices)``.  ``owner``/``parent``/``kept``
    are reusable scratch arrays owned by the driver."""
    offsets = snapshot.vertex_offsets
    nbr = snapshot.neighbor_ids
    vertex_ids = snapshot.vertex_ids
    n = snapshot.num_vertices

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

    def propose(part: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # Proposal priority packs (seed rank, proposer rank) into one
        # key — the minimum recovers the dict path's (seed id,
        # proposer id) lexicographic winner, because ranks order
        # exactly like ids.
        half = _concat_ranges(offsets[part], offsets[part + 1])
        counts = offsets[part + 1] - offsets[part]
        priorities = np.repeat(owner[part] * n + rank_of[part], counts)
        return nbr[half], priorities

    waves: List[np.ndarray] = []
    frontier = np.empty(0, dtype=np.int64)
    claimed = 0
    first_wave = int(starts.min()) if live.size else cap + 1
    for wave in range(first_wave, cap + 1):
        if frontier.size:
            cost = int((offsets[frontier + 1] - offsets[frontier]).sum())
            if engine is not None:
                targets, priorities = engine.gather(propose, frontier, cost)
            else:
                targets, priorities = propose(frontier)
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

    # One-sided boundary rule: one full fanned gather over the class
    # marks every vertex adjacent to a smaller-seed ball as deferred.
    def boundary_ok(part: np.ndarray) -> np.ndarray:
        half = _concat_ranges(offsets[part], offsets[part + 1])
        counts = offsets[part + 1] - offsets[part]
        theirs = owner[nbr[half]]
        foreign = (theirs >= 0) & (theirs < np.repeat(owner[part], counts))
        return ~_segment_any(foreign, counts)

    cost = int((offsets[live + 1] - offsets[live]).sum())
    if engine is not None:
        ok = engine.gather(boundary_ok, live, cost)
    else:
        ok = boundary_ok(live)
    kept[live] = ok

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


def _segment_any(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-segment logical OR of ``values`` split into consecutive
    segments of ``counts`` lengths (CSR neighbor reductions).  Handles
    empty segments, which ``logical_or.reduceat`` alone does not."""
    out = np.zeros(counts.size, dtype=bool)
    if values.size == 0:
        return out
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    padded = np.concatenate((values, np.zeros(1, dtype=bool)))
    reduced = np.logical_or.reduceat(
        padded, np.minimum(starts, values.size)
    )
    np.logical_and(reduced, counts > 0, out=out)
    return out


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
    backend: str = "auto",
) -> Dict[int, int]:
    """MPX random-shift clustering: vertex -> cluster head.

    Each vertex ``u`` draws ``δ_u ~ Exponential(β)``; vertex ``v`` joins
    the cluster of the head ``u`` minimizing ``d(u, v) - δ_u``.  Cluster
    radius is ``O(log n / β)`` w.h.p. and every edge is cut with
    probability at most ~β.  Charged rounds: O(log n / β).

    Both backends draw shifts in vertex insertion order and order the
    heap by ``(time, vertex id, head id)``, so for a given seed the
    clustering is identical; the csr path only swaps the dict adjacency
    for flat index arrays in the Dijkstra sweep.
    """
    if not (0.0 < beta <= 1.0):
        raise DecompositionError(f"beta must be in (0, 1], got {beta}")
    counter = ensure_counter(rounds)
    rng = make_rng(seed)
    n = graph.n
    if n == 0:
        return {}

    # The MPX sweep is a scalar Dijkstra whose heap order is the whole
    # determinism story — "parallel" resolves to the same csr arrays
    # (there is no wave to fan out without reordering the heap).
    if _resolve_backend(graph, backend) in _KERNEL:
        head_of = _mpx_sweep_csr(snapshot_of(graph), beta, rng)
    else:
        head_of = _mpx_sweep_dict(graph, beta, rng)

    expected_radius = math.ceil(math.log(max(n, 2)) / beta) + 1
    counter.charge(expected_radius, "MPX partial network decomposition")
    return head_of


def _mpx_sweep_dict(graph: GraphLike, beta: float, rng) -> Dict[int, int]:
    """Reference Dijkstra sweep with unit edges and start times -shift."""
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


def _mpx_sweep_csr(snapshot: CSRGraph, beta: float, rng) -> Dict[int, int]:
    """The same sweep over flat adjacency arrays.

    Heap entries carry ``(time, vertex id, head id)`` first — identical
    ordering to the dict path — with the dense indices appended as
    payload so the state arrays never need an id lookup.  Parallel
    half-edges relax twice, but the second attempt always fails the
    strict ``<`` test, so the pushed multiset matches the reference.
    """
    n = snapshot.num_vertices
    vids = snapshot.vertex_id_list()
    offsets, nbr = snapshot.adjacency_lists()
    # Same draw order as the dict path: vertex insertion order.
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
    graph: GraphLike, head_of: Dict[int, int], backend: str = "auto"
) -> List[int]:
    """Edge ids whose endpoints lie in different MPX clusters.

    A clustering that misses a vertex of the graph raises
    :class:`DecompositionError` naming the vertex (on both backends),
    instead of leaking a bare ``KeyError`` out of the gather.
    """
    if _resolve_backend(graph, backend) in _KERNEL:
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
    try:
        return [
            eid for eid, u, v in graph.edges() if head_of[u] != head_of[v]
        ]
    except KeyError as exc:
        raise DecompositionError(
            f"clustering has no head for vertex {exc.args[0]}"
        ) from None
