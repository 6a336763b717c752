"""The delta engine: maintain decompositions under edge-stream mutations.

Harris–Su–Vu's locality is what makes this possible: the H-partition
wave of a vertex is the *unique* fixed point of the local equation

    wave(v) = 1                                    if deg(v) <= t
    wave(v) = 1 + ((t+1)-th largest neighbor wave) otherwise

(uniqueness by the forced-set induction ``S_1 = V``,
``S_{i+1} = { v : deg_{S_i}(v) > t }`` — every solution's superlevel
sets coincide with the peel's).  So after an edge insert/delete only
the endpoints can violate their equation, and a worklist relaxation
that re-evaluates dirty vertices until quiescence is **provably equal
to a from-scratch peel** — which is the hard contract of
:meth:`~repro.core.session.Session.apply_delta`: the post-delta result
is bit-identical to a full recompute on the mutated graph, whether
the batch was repaired or recomputed.

Layers in this module:

* :func:`patched_snapshot` — splice the CSR snapshot out of the
  previous one: drop each deleted edge's two halves (found by edge id
  in its endpoints' segments), place the inserted halves with one
  sorted-slot ``np.insert`` per array and shift the offsets.  No
  ``argsort`` and no walk of the MultiGraph's dicts; what is left is
  O(m) copies.  Byte-identical arrays to ``CSRGraph.from_multigraph``.
* :func:`repair_waves` — the dirty-cascade worklist over the snapshot,
  one vectorized order-statistic evaluation per wave
  (:func:`segment_kth_largest`); aborts (returning None) when more
  than :data:`FALLBACK_DIRTY_FRACTION` of the vertices change wave,
  so the caller falls back to a full peel.
* :class:`SessionWaveOracle` — the per-graph cache ``h_partition``
  consults (see :func:`repro.decomposition.hpartition.install_wave_oracle`);
  the delta engine repairs its entries in place.
* task refreshers for ``orientation`` / ``pseudoforest`` (method
  ``"hpartition"``), registered on the task registry via
  :func:`repro.core.registry.set_task_delta`: they patch the previous
  batch's tail arrays, re-ruling only inserted edges and edges at a
  vertex whose wave changed, and re-fold the pseudoforest indices
  vectorized.  Tasks without a refresher fall back
  to a full ``session.decompose`` (trivially bit-identical, still
  accelerated by the patched snapshot and the wave oracle).
* the session-facing entry points :func:`watch_task`,
  :func:`apply_delta`, and the O(|delta|)-maintained
  :func:`content_digest` (a multiset blake2b sum over edges plus a
  blake2b chain over the delta journal).
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GraphError
from ..graph.csr import (
    CSRGraph,
    EdgeArrayMap,
    _concat_ranges,
    _sorted_unique,
    mutation_fingerprint,
    snapshot_of,
)
from ..decomposition.hpartition import (
    default_threshold,
    install_wave_oracle,
    uninstall_wave_oracle,
)
from ..local.rounds import ensure_counter
from ..core.algorithm_stats import TaskStats
from ..core.config import DecompositionConfig
from ..core.registry import get_task, set_task_delta
from ..core.results import OrientationResult, PseudoforestResult

__all__ = [
    "DeltaInfo",
    "DeltaReport",
    "WatchReport",
    "WatchState",
    "SessionWaveOracle",
    "apply_delta",
    "content_digest",
    "chain_digest",
    "patched_snapshot",
    "repair_waves",
    "segment_kth_largest",
    "watch_task",
    "JOURNAL_CHAIN_SEED",
]

#: the chain digest every session/journal starts from (generation 0)
JOURNAL_CHAIN_SEED = hashlib.blake2b(
    b"repro-delta-journal-v1", digest_size=32
).hexdigest()

_DIGEST_MOD = 1 << 256

#: a wave repair that changes more than this fraction of the vertices
#: is abandoned for a full peel (the result is the same either way)
FALLBACK_DIRTY_FRACTION = 0.25


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


@dataclass
class WatchReport:
    """How one watched task was refreshed by a delta batch."""

    task: str
    mode: str  # "incremental" | "full"
    wall_ms: float
    reason: str = ""

    def to_json(self) -> Dict[str, Any]:
        return {
            "task": self.task,
            "mode": self.mode,
            "wall_ms": round(self.wall_ms, 3),
            "reason": self.reason,
        }


@dataclass
class DeltaReport:
    """Outcome of one :meth:`Session.apply_delta` batch."""

    seq: int
    inserted: Tuple[int, ...]  # edge ids assigned to the inserts
    deleted: Tuple[int, ...]
    dirty_vertices: int
    dirty_fraction: float
    watches: List[WatchReport]
    wall_ms: float
    chain: str
    fingerprint: Tuple[int, int, int]

    @property
    def mode(self) -> str:
        """``"incremental"`` iff every watched task was repaired
        incrementally (vacuously true with no watches)."""
        if all(w.mode == "incremental" for w in self.watches):
            return "incremental"
        return "full"

    def to_json(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "inserted": list(self.inserted),
            "deleted": list(self.deleted),
            "mode": self.mode,
            "dirty_vertices": self.dirty_vertices,
            "dirty_fraction": round(self.dirty_fraction, 6),
            "watches": [w.to_json() for w in self.watches],
            "wall_ms": round(self.wall_ms, 3),
            "chain": self.chain,
            "fingerprint": list(self.fingerprint),
        }


@dataclass
class WatchState:
    """One maintained decomposition: the task, its frozen knobs, and
    the most recent result (always equal to a fresh recompute)."""

    task: str
    config: DecompositionConfig
    resolved_config: DecompositionConfig
    kwargs: Dict[str, Any]
    result: Any
    extras: Dict[str, Any] = field(default_factory=dict)


@dataclass
class DeltaInfo:
    """What one delta batch did to the graph — the refresher's input."""

    inserts: Tuple[Tuple[int, int, int], ...]  # (eid, u, v)
    deletes: Tuple[Tuple[int, int, int], ...]
    old_snapshot: Optional[CSRGraph]
    new_snapshot: CSRGraph
    kept_mask: Optional[np.ndarray]
    #: threshold -> ascending dense indices whose wave changed (present
    #: only for thresholds whose repair succeeded this batch)
    changed_by_threshold: Dict[int, np.ndarray]


# ----------------------------------------------------------------------
# Snapshot patching
# ----------------------------------------------------------------------


def _dense_endpoints(
    index_of: Optional[Dict[int, int]], records, column: int
) -> np.ndarray:
    """Dense indices of one endpoint column of ``(eid, u, v)`` records."""
    if index_of is None:
        return np.asarray([r[column] for r in records], dtype=np.int64)
    return np.asarray([index_of[r[column]] for r in records], dtype=np.int64)


def _segment_halves(
    offsets: np.ndarray, segments: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Half-edge positions of the given vertex segments, concatenated,
    and the index into ``segments`` each one came from."""
    lengths = offsets[segments + 1] - offsets[segments]
    half = _concat_ranges(offsets[segments], offsets[segments + 1])
    return half, np.repeat(np.arange(segments.size), lengths)


def patched_snapshot(
    old: CSRGraph,
    graph,
    inserts: Sequence[Tuple[int, int, int]],
    deletes: Sequence[Tuple[int, int, int]],
) -> Tuple[CSRGraph, Optional[np.ndarray]]:
    """Splice ``graph``'s snapshot out of the previous one; returns
    ``(snapshot, kept_mask)``.

    Byte-identical to ``CSRGraph.from_multigraph(graph)`` without
    sorting anything.  The MultiGraph's edge dict preserves insertion
    order, so the new edge list is "old order minus the deleted
    positions, plus the inserts appended".  In the half-edge arrays
    each vertex segment holds its u-side halves in edge order, then
    its v-side halves in edge order.  So a deleted edge drops one half
    from each endpoint's segment (found by edge id, scanning only
    those segments); an inserted edge's u-side half goes right after
    the u-part of its u-endpoint's segment and its v-side half at the
    end of its v-endpoint's segment.  One sorted-slot ``np.insert``
    per array places every new half and ``offsets`` shift by a
    cumulative per-vertex count.  The work left is O(m) copies
    (keep-mask compaction, the insert, the edge-array concatenation);
    only the touched segments are scanned.  Requires an unchanged
    vertex set (``apply_delta`` guarantees it; anything else takes the
    full rebuild path).
    """
    if old.num_vertices != graph.n:
        snap = CSRGraph.from_multigraph(graph)
        return snap, None
    n = old.num_vertices
    index_of = old._index_of
    offsets = old.vertex_offsets
    neighbor_ids = old.neighbor_ids
    edge_ids = old.edge_ids
    keep = np.ones(old.num_edges, dtype=bool)
    edge_id, edge_u, edge_v = old.edge_id, old.edge_u, old.edge_v
    ins_eid = np.asarray([i[0] for i in inserts], dtype=np.int64)
    ins_u = _dense_endpoints(index_of, inserts, 1)
    ins_v = _dense_endpoints(index_of, inserts, 2)
    del_eid = np.asarray([d[0] for d in deletes], dtype=np.int64)
    del_ends = np.concatenate(
        (_dense_endpoints(index_of, deletes, 1),
         _dense_endpoints(index_of, deletes, 2))
    )
    dropped = np.empty(0, dtype=np.int64)
    if deletes:
        keep[old.edge_positions(del_eid)] = False
        edge_id, edge_u, edge_v = edge_id[keep], edge_u[keep], edge_v[keep]
        # each deleted half, by edge id inside its endpoint's segment
        half, owner = _segment_halves(offsets, del_ends)
        wanted = np.concatenate((del_eid, del_eid))[owner]
        dropped = half[edge_ids[half] == wanted]
        dropped.sort()
        half_keep = np.ones(edge_ids.shape[0], dtype=bool)
        half_keep[dropped] = False
        neighbor_ids = neighbor_ids[half_keep]
        edge_ids = edge_ids[half_keep]
    counts = np.bincount(
        np.concatenate((ins_u, ins_v)), minlength=n
    ) - np.bincount(del_ends, minlength=n)
    new_offsets = offsets.copy()
    np.cumsum(counts, out=counts)
    new_offsets[1:] += counts
    if inserts:
        # u-part length of each touched segment, counted in the old
        # arrays (deleted u-halves included: slots are old positions)
        touched = _sorted_unique(ins_u)
        half, owner = _segment_halves(offsets, touched)
        is_u = old.edge_u[old.edge_positions(old.edge_ids[half])] == (
            touched[owner]
        )
        u_part = np.bincount(owner[is_u], minlength=touched.size)
        at = np.searchsorted(touched, ins_u)
        slot = np.concatenate(
            (offsets[touched][at] + u_part[at], offsets[ins_v + 1])
        )
        k = len(inserts)
        segment = np.concatenate((ins_u, ins_v))
        side = np.repeat(np.arange(2), k)
        rank = np.tile(np.arange(k), 2)
        # the v-side end of segment b and the u-side slot of segment
        # b + 1 can share an old position: segment, then side, breaks it
        order = np.lexsort((rank, side, segment, slot))
        slot = slot[order]
        slot -= np.searchsorted(dropped, slot)
        neighbor_ids = np.insert(
            neighbor_ids, slot, np.concatenate((ins_v, ins_u))[order]
        )
        edge_ids = np.insert(edge_ids, slot, np.tile(ins_eid, 2)[order])
        edge_id = np.concatenate((edge_id, ins_eid))
        edge_u = np.concatenate((edge_u, ins_u))
        edge_v = np.concatenate((edge_v, ins_v))
    m = int(edge_id.shape[0])
    # ids ascend and are distinct, so they are 0..m-1 iff the last is m-1
    identity_edges = m == 0 or int(edge_id[-1]) == m - 1
    snap = CSRGraph(
        old.vertex_ids,
        new_offsets,
        neighbor_ids,
        edge_ids,
        edge_u,
        edge_v,
        edge_id,
        index_of,
        identity_edges,
    )
    return snap, keep


# ----------------------------------------------------------------------
# Wave repair
# ----------------------------------------------------------------------


def segment_kth_largest(
    values: np.ndarray,
    lengths: np.ndarray,
    k: int,
    fill: int = 0,
) -> np.ndarray:
    """Per-segment ``k``-th largest (0-based) of a concatenated array.

    ``values`` is the concatenation of ``len(lengths)`` variable-length
    segments; segment ``i`` holds ``lengths[i]`` entries.  Returns one
    value per segment: its ``(k+1)``-th largest entry, or ``fill`` for
    segments shorter than ``k + 1``.  One lexsort over the whole batch,
    no per-segment Python: this is the order statistic of the wave
    equation ("one plus the ``(t+1)``-th largest neighbor wave").
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    num_segments = int(lengths.shape[0])
    out = np.full(num_segments, fill, dtype=np.int64)
    big = lengths > k
    if not np.any(big):
        return out
    seg_idx = np.repeat(np.arange(num_segments, dtype=np.int64), lengths)
    order = np.lexsort((-np.asarray(values, dtype=np.int64), seg_idx))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    out[big] = np.asarray(values, dtype=np.int64)[order[starts[big] + k]]
    return out


def _frontier_wave_values(
    offsets: np.ndarray,
    neighbors: np.ndarray,
    waves: np.ndarray,
    frontier: np.ndarray,
    threshold: int,
) -> np.ndarray:
    """Evaluate the fixed-point equation for an ascending frontier."""
    starts = offsets[frontier]
    ends = offsets[frontier + 1]
    half = _concat_ranges(starts, ends)
    kth = segment_kth_largest(
        waves[neighbors[half]], ends - starts, threshold, fill=0
    )
    return kth + 1


def repair_waves(
    snapshot: CSRGraph,
    waves: np.ndarray,
    seeds: np.ndarray,
    threshold: int,
    max_dirty: int,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Worklist repair of an H-partition wave assignment.

    ``waves`` must satisfy the fixed-point equation everywhere except
    possibly at ``seeds`` (the dense indices incident to the delta).
    Relaxes until quiescence and returns ``(repaired waves, ascending
    changed indices)``; returns None when more than ``max_dirty``
    vertices change (the dirty-fraction fallback) or the iteration cap
    trips.  On success the result *is* the full peel's assignment —
    the fixed point is unique (see the module docstring).
    """
    offsets = snapshot.vertex_offsets
    neighbors = snapshot.neighbor_ids
    n = snapshot.num_vertices
    waves = waves.copy()
    changed_mask = np.zeros(n, dtype=bool)
    total_changed = 0
    frontier = _sorted_unique(np.asarray(seeds, dtype=np.int64))
    if frontier.size and (frontier[0] < 0 or frontier[-1] >= n):
        raise GraphError("wave-repair seed index out of range")
    cap = 4 * n + 8
    steps = 0
    while frontier.size:
        steps += 1
        if steps > cap:
            return None
        new_vals = _frontier_wave_values(
            offsets, neighbors, waves, frontier, threshold
        )
        diff = new_vals != waves[frontier]
        changed = frontier[diff]
        if changed.size == 0:
            break
        waves[changed] = new_vals[diff]
        newly = changed[~changed_mask[changed]]
        changed_mask[newly] = True
        total_changed += int(newly.size)
        if total_changed > max_dirty:
            return None
        half = _concat_ranges(offsets[changed], offsets[changed + 1])
        frontier = _sorted_unique(neighbors[half])
    return waves, np.flatnonzero(changed_mask)


class SessionWaveOracle:
    """Per-graph cache of peel wave labels, one entry per threshold.

    ``h_partition`` consults :meth:`lookup` before peeling (returning a
    fresh classes dict on a fingerprint hit, charging the same number
    of rounds the peel would) and feeds :meth:`record` after a real
    peel; :func:`apply_delta` repairs every entry in place per batch.
    LRU-bounded so a session sweeping many epsilons stays small.
    """

    MAX_THRESHOLDS = 8

    class Entry:
        __slots__ = ("fingerprint", "waves", "classes")

        def __init__(self, fingerprint, waves, classes):
            self.fingerprint = fingerprint
            self.waves = waves  # dense-index wave array
            self.classes = classes  # vertex id -> wave

    def __init__(self, graph) -> None:
        self.graph = graph
        self.entries: "OrderedDict[int, SessionWaveOracle.Entry]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.repairs = 0
        self.fallbacks = 0

    def lookup(self, graph, threshold: int):
        if graph is not self.graph:
            return None
        entry = self.entries.get(threshold)
        if (
            entry is None
            or entry.fingerprint != mutation_fingerprint(graph)
        ):
            self.misses += 1
            return None
        self.entries.move_to_end(threshold)
        self.hits += 1
        return dict(entry.classes)

    def record(self, graph, threshold: int, classes: Dict[int, int]) -> None:
        if graph is not self.graph:
            return
        snap = snapshot_of(graph)
        waves = np.fromiter(
            (classes[v] for v in snap.vertex_ids.tolist()),
            dtype=np.int64,
            count=snap.num_vertices,
        )
        self.entries[threshold] = SessionWaveOracle.Entry(
            mutation_fingerprint(graph), waves, dict(classes)
        )
        self.entries.move_to_end(threshold)
        while len(self.entries) > self.MAX_THRESHOLDS:
            self.entries.popitem(last=False)

    def entry(self, threshold: int, fingerprint=None):
        entry = self.entries.get(threshold)
        if entry is None:
            return None
        if fingerprint is not None and entry.fingerprint != fingerprint:
            return None
        return entry

    def drop(self, threshold: int) -> None:
        self.entries.pop(threshold, None)

    def stats(self) -> Dict[str, int]:
        return {
            "thresholds": len(self.entries),
            "hits": self.hits,
            "misses": self.misses,
            "repairs": self.repairs,
            "fallbacks": self.fallbacks,
        }


# ----------------------------------------------------------------------
# Session delta state
# ----------------------------------------------------------------------


class DeltaState:
    """Everything :meth:`Session.apply_delta` keeps between batches."""

    def __init__(self, session) -> None:
        self.session = session
        self.oracle = SessionWaveOracle(session.graph)
        install_wave_oracle(session.graph, self.oracle)
        self.seq = 0
        self.chain = JOURNAL_CHAIN_SEED
        #: fingerprint after the last batch (None = never synced)
        self.fingerprint: Optional[Tuple[int, int, int]] = None
        #: multiset digest sums, valid iff digest_fp matches the graph
        self.digest_fp: Optional[Tuple[int, int, int]] = None
        self.edge_sum = 0
        self.vertex_sum = 0

    def close(self) -> None:
        uninstall_wave_oracle(self.session.graph)


def ensure_delta_state(session) -> DeltaState:
    state = getattr(session, "_delta_state", None)
    if state is None or state.session is not session:
        state = DeltaState(session)
        session._delta_state = state
    return state


# ----------------------------------------------------------------------
# Content digest (O(|delta|) maintained) and journal chaining
# ----------------------------------------------------------------------


def _token(payload: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=32).digest(), "big"
    )


def _edge_token(eid: int, u: int, v: int) -> int:
    return _token(b"e:%d:%d:%d" % (eid, u, v))


def _vertex_token(v: int) -> int:
    return _token(b"v:%d" % v)


def _resync_digest(state: DeltaState) -> None:
    graph = state.session.graph
    state.vertex_sum = (
        sum(_vertex_token(v) for v in graph._adj) % _DIGEST_MOD
    )
    state.edge_sum = (
        sum(
            _edge_token(eid, u, v)
            for eid, (u, v) in graph._edges.items()
        )
        % _DIGEST_MOD
    )
    state.digest_fp = mutation_fingerprint(graph)


def content_digest(session) -> str:
    """A digest of the graph's full content (vertex set + edge
    multiset with ids), maintained in O(|delta|) per
    :meth:`Session.apply_delta` batch.

    Edges and vertices contribute independent blake2b tokens summed
    mod 2**256, so inserts add and deletes subtract — the maintained
    value always equals a from-scratch recomputation (which only runs
    when the graph was mutated outside ``apply_delta``).
    """
    state = ensure_delta_state(session)
    if state.digest_fp != mutation_fingerprint(session.graph):
        _resync_digest(state)
    graph = session.graph
    head = "repro-content-v1:%d:%d:%d:%d:%064x:%064x" % (
        graph.n,
        graph.m,
        graph._next_edge,
        graph._next_vertex,
        state.vertex_sum,
        state.edge_sum,
    )
    return hashlib.blake2b(head.encode(), digest_size=32).hexdigest()


def chain_digest(prev: str, payload: Dict[str, Any]) -> str:
    """One blake2b link of the delta-journal chain: the previous chain
    value concatenated with the batch's canonical JSON."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(
        (prev + canonical).encode(), digest_size=32
    ).hexdigest()


# ----------------------------------------------------------------------
# Watching
# ----------------------------------------------------------------------


def watch_task(session, task: str, config, kwargs: Dict[str, Any]):
    """Run ``task`` once and register it for delta maintenance."""
    state = ensure_delta_state(session)
    spec = get_task(task)
    cfg = config if config is not None else session.config
    result = session.decompose(task, config=cfg, **kwargs)
    ws = WatchState(
        task=task,
        config=cfg,
        resolved_config=cfg.with_defaults(spec.default_epsilon),
        kwargs=dict(kwargs),
        result=result,
        extras={},
    )
    _prime_watch_extras(session, state, ws)
    session._watches[task] = ws
    if state.fingerprint is None:
        state.fingerprint = session.fingerprint()
    return result


def _watch_options(ws: WatchState) -> Dict[str, Any]:
    """The task kwargs the dispatcher would see: ``config.options``
    overlaid with the watch's direct kwargs (direct wins)."""
    merged = dict(ws.resolved_config.options)
    merged.update(ws.kwargs)
    return merged


def _watch_threshold(session, ws: WatchState) -> Optional[int]:
    """The peel threshold this watch's hpartition run uses (None when
    the watch is not an hpartition-method orientation/pseudoforest)."""
    if ws.task not in ("orientation", "pseudoforest"):
        return None
    merged = _watch_options(ws)
    if merged.get("method") != "hpartition":
        return None
    pseudo = merged.get("pseudoarboricity")
    if pseudo is None:
        pseudo = session.pseudoarboricity()
    return max(1, default_threshold(pseudo, ws.resolved_config.epsilon))


def _tail_rule(
    waves: np.ndarray,
    eu: np.ndarray,
    ev: np.ndarray,
    eu_ids: np.ndarray,
    ev_ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Theorem 2.1(2) on endpoint arrays: ``(tail vertex ids, tail
    dense indices)`` — exactly
    :func:`~repro.decomposition.hpartition.acyclic_orientation`'s
    ``u_wins`` comparison."""
    cu = waves[eu]
    cv = waves[ev]
    u_wins = (cu < cv) | ((cu == cv) & (eu_ids < ev_ids))
    return np.where(u_wins, eu_ids, ev_ids), np.where(u_wins, eu, ev)


def _tails_arrays(
    snap: CSRGraph, waves: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The Theorem 2.1(2) rule over every edge position of ``snap``."""
    return _tail_rule(
        waves, snap.edge_u, snap.edge_v, snap.edge_u_ids, snap.edge_v_ids
    )


def _prime_watch_extras(session, state: DeltaState, ws: WatchState) -> None:
    """Seed the per-watch incremental scratch (the tails the refreshers
    patch, aligned with the current snapshot) after a full run."""
    ws.extras.clear()
    threshold = _watch_threshold(session, ws)
    if threshold is None:
        return
    entry = state.oracle.entry(threshold, session.fingerprint())
    if entry is None:
        return
    snap = snapshot_of(session.graph)
    tails_ids, tails_idx = _tails_arrays(snap, entry.waves)
    ws.extras["threshold"] = threshold
    ws.extras["orientation"] = EdgeArrayMap(snap.edge_id, tails_ids)
    ws.extras["tails_idx"] = tails_idx


# ----------------------------------------------------------------------
# Task refreshers
# ----------------------------------------------------------------------


def _spliced_tails(
    ws: WatchState, info: DeltaInfo, waves: np.ndarray, changed: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Patch the previous batch's tails onto the new snapshot, or None
    when no previous state is aligned with ``info.old_snapshot``.

    A tail depends only on its edge's endpoint waves and ids, so only
    inserted edges and edges at a vertex whose wave changed can differ
    from the kept tails.  Those positions are re-ruled; the rest is
    the old arrays under ``kept_mask`` with the inserts appended."""
    prev = ws.extras.get("orientation")
    prev_idx = ws.extras.get("tails_idx")
    old = info.old_snapshot
    if (
        info.kept_mask is None
        or prev_idx is None
        or not isinstance(prev, EdgeArrayMap)
        or old is None
        or prev.eids is not old.edge_id
    ):
        return None
    snap = info.new_snapshot
    kept = info.kept_mask
    m_kept = snap.num_edges - len(info.inserts)
    tails_ids = np.empty(snap.num_edges, dtype=prev.vals.dtype)
    tails_idx = np.empty(snap.num_edges, dtype=prev_idx.dtype)
    tails_ids[:m_kept] = prev.vals[kept]
    tails_idx[:m_kept] = prev_idx[kept]
    offsets = snap.vertex_offsets
    half = _concat_ranges(offsets[changed], offsets[changed + 1])
    pos = np.concatenate((
        snap.edge_positions(snap.edge_ids[half]),
        np.arange(m_kept, snap.num_edges, dtype=np.int64),
    ))
    tails_ids[pos], tails_idx[pos] = _tail_rule(
        waves,
        snap.edge_u[pos],
        snap.edge_v[pos],
        snap.edge_u_ids[pos],
        snap.edge_v_ids[pos],
    )
    return tails_ids, tails_idx


def _patched_orientation(
    session, ws: WatchState, info: DeltaInfo
) -> Optional[Tuple[EdgeArrayMap, np.ndarray, int]]:
    """Shared incremental core of the orientation/pseudoforest
    refreshers: returns ``(orientation mapping, tail dense indices per
    edge position, threshold)`` or None when repair is impossible.

    The previous batch's tails are patched, not recomputed: kept under
    ``kept_mask``, the inserts appended, and the Theorem 2.1(2) rule
    re-applied only at inserted edges and at edges incident to a
    vertex whose wave changed (:func:`_spliced_tails`).  Every other
    edge keeps its tail because neither endpoint's wave moved, so the
    result is bit-identical to a full :func:`_tails_arrays` pass, which
    still runs when no aligned previous state exists.  The mapping is
    an :class:`~repro.graph.csr.EdgeArrayMap` over the new snapshot's
    ``edge_id``, and ``extras["tails_idx"]`` keeps the dense tails next
    to it for the next batch.  The primed ``extras["orientation"]``
    entry gates the path: its absence means the last full run predates
    this watch's scratch and repair must fall back.
    """
    state = getattr(session, "_delta_state", None)
    if state is None:
        return None
    if ws.extras.get("orientation") is None:
        return None
    threshold = _watch_threshold(session, ws)
    if threshold is None or threshold != ws.extras.get("threshold"):
        return None
    changed = info.changed_by_threshold.get(threshold)
    if changed is None:
        return None
    entry = state.oracle.entry(threshold, session.fingerprint())
    if entry is None:
        return None
    snap = info.new_snapshot
    tails = _spliced_tails(ws, info, entry.waves, changed)
    if tails is None:
        tails = _tails_arrays(snap, entry.waves)
    tails_ids, tails_idx = tails
    orientation = EdgeArrayMap(snap.edge_id, tails_ids)
    ws.extras["orientation"] = orientation
    ws.extras["tails_idx"] = tails_idx
    return orientation, tails_idx, threshold


def _refresh_orientation(session, ws: WatchState, info: DeltaInfo):
    patched = _patched_orientation(session, ws, info)
    if patched is None:
        return None
    orientation, _tails_idx, threshold = patched
    counter = ensure_counter(None)
    counter.charge(1, "delta: orientation patch")
    return OrientationResult(
        orientation, threshold, rounds=counter, stats=TaskStats(),
        graph=session.graph,
    )


def _fold_pseudoforests(
    edge_id: np.ndarray, tails_idx: np.ndarray
) -> "EdgeArrayMap | Dict[int, int]":
    """Vectorized equivalent of
    :func:`~repro.nashwilliams.pseudoarboricity.
    pseudoforest_decomposition_from_orientation`: rank each edge among
    its tail's out-edges in ascending edge-id order (edge positions
    ascend by id, so a stable argsort by tail gives the running
    index).  Returns an array-backed mapping — dict-equal to the
    reference fold, without m boxed ints."""
    m = int(edge_id.shape[0])
    if m == 0:
        return {}
    order = np.argsort(tails_idx, kind="stable")
    sorted_tails = tails_idx[order]
    boundary = np.empty(m, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_tails[1:], sorted_tails[:-1], out=boundary[1:])
    group_starts = np.flatnonzero(boundary)
    start_per_item = group_starts[np.cumsum(boundary) - 1]
    ranks = np.arange(m, dtype=np.int64) - start_per_item
    k = np.empty(m, dtype=np.int64)
    k[order] = ranks
    return EdgeArrayMap(edge_id, k)


def _refresh_pseudoforest(session, ws: WatchState, info: DeltaInfo):
    patched = _patched_orientation(session, ws, info)
    if patched is None:
        return None
    _orientation, tails_idx, threshold = patched
    coloring = _fold_pseudoforests(info.new_snapshot.edge_id, tails_idx)
    counter = ensure_counter(None)
    counter.charge(1, "delta: orientation patch + fold")
    return PseudoforestResult(
        coloring, threshold, rounds=counter, stats=TaskStats(),
        graph=session.graph,
    )


set_task_delta("orientation", _refresh_orientation)
set_task_delta("pseudoforest", _refresh_pseudoforest)


# ----------------------------------------------------------------------
# apply_delta
# ----------------------------------------------------------------------


def _validate_batch(graph, inserts, deletes):
    """Pre-validate the whole batch so a bad edit leaves the graph
    untouched (apply_delta is atomic per batch)."""
    ins = [(int(u), int(v)) for u, v in inserts]
    dels = [int(e) for e in deletes]
    if len(set(dels)) != len(dels):
        raise GraphError("duplicate edge ids in delete batch")
    del_records = []
    for eid in dels:
        u, v = graph.endpoints(eid)  # raises GraphError when missing
        del_records.append((eid, u, v))
    for u, v in ins:
        if u == v:
            raise GraphError(f"self-loop at vertex {u} is not allowed")
        for vertex in (u, v):
            if not graph.has_vertex(vertex):
                raise GraphError(f"vertex {vertex} does not exist")
    return ins, del_records


def _seed_indices(snap: CSRGraph, info_edges) -> np.ndarray:
    ids = set()
    for _eid, u, v in info_edges:
        ids.add(u)
        ids.add(v)
    if not ids:
        return np.empty(0, dtype=np.int64)
    index_of = snap._index_of
    if index_of is None:
        idx = np.fromiter(ids, dtype=np.int64, count=len(ids))
    else:
        idx = np.fromiter(
            (index_of[v] for v in ids), dtype=np.int64, count=len(ids)
        )
    return _sorted_unique(idx)


def apply_delta(
    session,
    inserts: Sequence[Tuple[int, int]] = (),
    deletes: Sequence[int] = (),
) -> DeltaReport:
    """Apply one batch of edge mutations and refresh every watched
    decomposition (see :meth:`Session.apply_delta` for the contract)."""
    start = time.perf_counter()
    state = ensure_delta_state(session)
    graph = session.graph

    ins, del_records = _validate_batch(graph, inserts, deletes)

    old_fp = mutation_fingerprint(graph)
    cached = graph.__dict__.get("_csr_snapshot_cache")
    old_snap = cached[1] if cached is not None and cached[0] == old_fp else None
    digest_live = state.digest_fp == old_fp

    # -- mutate -------------------------------------------------------
    for eid, _u, _v in del_records:
        graph.remove_edge(eid)
    ins_records = tuple((graph.add_edge(u, v), u, v) for u, v in ins)
    del_records = tuple(del_records)
    new_fp = mutation_fingerprint(graph)

    # -- O(|delta|) digest maintenance --------------------------------
    if digest_live:
        delta_sum = 0
        for eid, u, v in ins_records:
            delta_sum += _edge_token(eid, u, v)
        for eid, u, v in del_records:
            delta_sum -= _edge_token(eid, u, v)
        state.edge_sum = (state.edge_sum + delta_sum) % _DIGEST_MOD
        state.digest_fp = new_fp

    # -- snapshot patch -----------------------------------------------
    if old_snap is not None:
        new_snap, kept = patched_snapshot(
            old_snap, graph, ins_records, del_records
        )
    else:
        new_snap = CSRGraph.from_multigraph(graph)
        kept = None
    graph.__dict__["_csr_snapshot_cache"] = (new_fp, new_snap)

    # -- wave repair over every cached threshold ----------------------
    n = new_snap.num_vertices
    changed_by_threshold: Dict[int, np.ndarray] = {}
    oracle = state.oracle
    max_dirty = int(FALLBACK_DIRTY_FRACTION * n)
    seeds = _seed_indices(new_snap, ins_records + del_records)

    for threshold in list(oracle.entries.keys()):
        entry = oracle.entries[threshold]
        if entry.fingerprint != old_fp:
            oracle.drop(threshold)
            continue
        repaired = repair_waves(
            new_snap, entry.waves, seeds, threshold, max_dirty
        )
        if repaired is None:
            oracle.fallbacks += 1
            oracle.drop(threshold)
            continue
        waves, changed = repaired
        entry.waves = waves
        vertex_ids = new_snap.vertex_ids
        for idx in changed.tolist():
            entry.classes[int(vertex_ids[idx])] = int(waves[idx])
        entry.fingerprint = new_fp
        oracle.repairs += 1
        changed_by_threshold[threshold] = changed

    info = DeltaInfo(
        inserts=ins_records,
        deletes=del_records,
        old_snapshot=old_snap,
        new_snapshot=new_snap,
        kept_mask=kept,
        changed_by_threshold=changed_by_threshold,
    )

    # -- refresh watches ----------------------------------------------
    watch_reports: List[WatchReport] = []
    for task, ws in session._watches.items():
        spec = get_task(task)
        t0 = time.perf_counter()
        result = None
        wmode = "full"
        reason = ""
        if spec.delta is not None:
            result = spec.delta(session, ws, info)
            if result is not None:
                wmode = "incremental"
        if result is None:
            if spec.delta is None:
                reason = "no incremental refresher"
            else:
                reason = "refresher fell back"
            result = session.decompose(task, config=ws.config, **ws.kwargs)
            _prime_watch_extras(session, state, ws)
        else:
            resolved = ws.resolved_config
            if result.graph is None:
                result.graph = graph
            result.config = resolved
            session._record_passes(result)
            if resolved.validation != "none":
                result.validate(level=resolved.validation)
        ws.result = result
        watch_reports.append(
            WatchReport(
                task=task,
                mode=wmode,
                wall_ms=(time.perf_counter() - t0) * 1000.0,
                reason=reason,
            )
        )

    # -- journal chain + report ---------------------------------------
    state.seq += 1
    payload = {
        "seq": state.seq,
        "inserts": [[u, v] for u, v in ins],
        "deletes": [eid for eid, _u, _v in del_records],
    }
    state.chain = chain_digest(state.chain, payload)
    state.fingerprint = new_fp

    dirty = max(
        (int(c.size) for c in changed_by_threshold.values()), default=0
    )
    report = DeltaReport(
        seq=state.seq,
        inserted=tuple(eid for eid, _u, _v in ins_records),
        deleted=tuple(eid for eid, _u, _v in del_records),
        dirty_vertices=dirty,
        dirty_fraction=dirty / n if n else 0.0,
        watches=watch_reports,
        wall_ms=(time.perf_counter() - start) * 1000.0,
        chain=state.chain,
        fingerprint=new_fp,
    )
    session._delta_reports.append(report)
    del session._delta_reports[:-256]
    return report
