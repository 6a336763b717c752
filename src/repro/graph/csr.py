"""Flat-array (CSR) graph kernel for the decomposition hot paths.

Every algorithm in the library is *defined* on :class:`MultiGraph`'s
dict-of-dicts adjacency, but the procedures that dominate runtime —
H-partition threshold peeling, degeneracy delete-min, orientation
sweeps, CUT's region scans, the augmenting search's endpoint lookups —
only ever need degree queries and neighborhood iteration.  Those map
onto flat index arrays, which is how this kernel makes them run at
array speed while the public API keeps accepting ``MultiGraph``.

Snapshot / peel contract
------------------------

:class:`CSRGraph` is an **immutable snapshot** of a ``MultiGraph`` at
build time:

* Vertices are renumbered to dense indices ``0..n-1`` in insertion
  order; ``vertex_ids[i]`` recovers the original id and
  :meth:`index_of` inverts it (both are the identity for the common
  case of graphs built via ``with_vertices``).
* ``vertex_offsets`` (length ``n+1``), ``neighbor_ids`` and
  ``edge_ids`` (length ``2m``) form the CSR adjacency: the half-edges
  of vertex index ``i`` occupy ``vertex_offsets[i]:vertex_offsets[i+1]``,
  where ``neighbor_ids`` holds the neighbor *index* and ``edge_ids``
  the **original edge id** — stable ids survive the conversion, so
  colorings computed on the snapshot transfer back without
  translation.  Parallel edges appear once per copy.
* ``edge_u``/``edge_v`` (endpoint indices) and ``edge_id`` (original
  ids) list edges by position in ``MultiGraph`` insertion order.  An
  edge id resolves to its position by binary search over ``edge_id``
  (or over its stable argsort, when the ids do not ascend); no
  per-edge side structure is built.
* Degree lookup is O(1): ``vertex_offsets[i+1] - vertex_offsets[i]``.

The snapshot is only valid while the source graph is unmutated; every
algorithm in this library treats its input graph as read-only, so one
snapshot per run (cached on the graph by :func:`snapshot_of`, which
:class:`~repro.core.partial_coloring.PartialListForestDecomposition`
hands to CUT and the augmenting search) is safe.

The two peels read a snapshot and keep their own degree bookkeeping,
so many peels can share one snapshot:

* :func:`repro.decomposition.hpartition.h_partition` runs Theorem
  2.1's threshold waves on arrays: each wave removes every live vertex
  of remaining degree ≤ t at once, and the batched degree update
  (:func:`apply_degree_decrements`) returns exactly the vertices it
  pushed to ≤ t, which are the next wave's removals.  A cascade of
  waves touches only its frontier instead of rescanning all ``n``
  vertices per wave.
* :func:`degeneracy_peel` is the delete-min peel: it removes the live
  vertex minimizing ``(remaining degree, vertex id)``, one at a time.
  The degeneracy ordering and exact pseudoarboricity both start from
  its order.

Both count remaining degree with parallel edges, exactly like the
dict-backed loops they replaced (kept as the test suite's reference,
``tests/reference/peel.py``); results are byte-identical (see
``tests/test_kernel_equivalence.py``).
"""

from __future__ import annotations

import heapq
import os
from collections.abc import Mapping
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import GraphError
from .multigraph import MultiGraph


def _concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], ends[i])`` for all i, vectorized."""
    if starts.size == 1:
        return np.arange(starts[0], ends[0], dtype=np.int64)
    lengths = ends - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    before = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return np.repeat(starts - before, lengths) + np.arange(total, dtype=np.int64)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Ascending distinct entries of a 1-D int array: one sort and an
    adjacent-difference mask.  Same output as plain ``np.unique``,
    which hashes on numpy 2.x and measured 3x slower at 20 entries and
    ~50x at 200k (numpy 2.4, random int64)."""
    out = np.sort(values)
    if out.size > 1:
        keep = np.empty(out.size, dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


def _half_edge_csr(
    n: int, sub_u: np.ndarray, sub_v: np.ndarray, sub_eid: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble CSR adjacency ``(offsets, neighbors, edge ids)`` over
    ``n`` dense vertex indices from an edge list given as endpoint-index
    arrays.  The stable counting sort keeps, within each vertex, u-side
    half-edges (by edge position) before v-side ones."""
    half_src = np.concatenate((sub_u, sub_v))
    half_dst = np.concatenate((sub_v, sub_u))
    half_eid = np.concatenate((sub_eid, sub_eid))
    # Stable order is unique, so sorting a uint32 view of the keys
    # yields the identical permutation while hitting numpy's radix
    # path (several times faster than the int64 comparison sort).
    # Dense vertex indices are nonnegative and far below 2**32.
    sort_key = (
        half_src.astype(np.uint32) if n < 2**32 - 1 else half_src
    )
    order = np.argsort(sort_key, kind="stable")
    counts = (
        np.bincount(half_src, minlength=n)
        if half_src.size
        else np.zeros(n, np.int64)
    )
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, half_dst[order], half_eid[order]


def apply_degree_decrements(
    remaining: np.ndarray, neighbors: np.ndarray, n: int
) -> np.ndarray:
    """Batched ``remaining[v] -= multiplicity of v in neighbors``;
    returns the sorted unique decremented indices.

    The one degree-update primitive of the peeling wave.  Parallel
    edges are handled exactly like the ``np.subtract.at`` call this
    replaces — one decrement per occurrence — but the dense path is a
    single ``np.bincount`` subtraction (buffered, several times faster
    than the unbuffered ``ufunc.at`` scatter on dense waves) and the
    sparse path a sorted-unique scatter that never touches the full
    array.  The wave reads the returned indices to find the vertices
    that crossed its threshold.
    """
    if neighbors.size == 0:
        return np.empty(0, dtype=np.int64)
    if neighbors.size * 4 >= n:
        counts = np.bincount(neighbors, minlength=n)
        remaining -= counts
        return np.flatnonzero(counts)
    touched, counts = np.unique(neighbors, return_counts=True)
    remaining[touched] -= counts
    return touched


def bfs_distance_array(
    offsets: np.ndarray,
    neighbors: np.ndarray,
    n: int,
    seeds: Sequence[int],
    radius: Optional[int] = None,
) -> np.ndarray:
    """Frontier-vectorized multi-source BFS over any CSR adjacency.

    The one sweep shared by the snapshot's :meth:`CSRGraph.distance_array`,
    the induced-subgraph diameter scan, and the per-color component
    queries: returns per-index distances (-1 unreached), stopping at
    ``radius`` when given.

    A wave whose candidate gather holds at least ``n / 8`` half-edges
    dedups with a scatter mask, O(n + h), instead of an O(h log h)
    sort; both yield the same ascending unique targets.
    """
    dist = np.full(n, -1, dtype=np.int64)
    if len(seeds) == 0:
        return dist
    frontier = _sorted_unique(np.asarray(seeds, dtype=np.int64))
    # Negative seeds would silently wrap around under numpy fancy
    # indexing and out-of-range ones would raise a bare IndexError
    # mid-sweep; both are caller bugs worth a real error.
    if frontier[0] < 0 or frontier[-1] >= n:
        bad = frontier[0] if frontier[0] < 0 else frontier[-1]
        raise GraphError(
            f"BFS seed index {int(bad)} out of range for {n} vertices"
        )
    dist[frontier] = 0
    depth = 0
    while frontier.size and (radius is None or depth < radius):
        half = _concat_ranges(offsets[frontier], offsets[frontier + 1])
        candidates = neighbors[half]
        if candidates.size * 8 >= n:
            mask = np.zeros(n, dtype=bool)
            mask[candidates] = True
            mask &= dist < 0
            targets = np.flatnonzero(mask)
        else:
            targets = _sorted_unique(candidates)
            targets = targets[dist[targets] < 0]
        depth += 1
        dist[targets] = depth
        frontier = targets
    return dist


def mutation_fingerprint(graph) -> Tuple[int, int, int]:
    """A value that changes on every :class:`MultiGraph` mutation.

    ``add_vertex`` bumps ``n``, ``add_edge`` bumps ``_next_edge``
    (monotonically), and ``remove_edge`` drops ``m`` — no edit sequence
    restores all three, so an equal fingerprint means the graph is
    unchanged.  This keys every derived-data cache in the library: the
    per-graph snapshot below and the :class:`~repro.core.session.Session`
    memos (arboricity, pseudoarboricity).

    :class:`CSRGraph` inputs are immutable, so their highest edge id
    stands in for the mutation counter — this is what lets a
    memmap-ingested snapshot flow straight into a ``Session``.
    """
    if isinstance(graph, CSRGraph):
        next_edge = (
            int(graph.edge_id[-1]) + 1 if graph.num_edges else 0
        )
        return (graph.n, graph.m, next_edge)
    return (graph.n, graph.m, graph._next_edge)


def _coerce_edge_chunks(source, chunk_edges: int):
    """Yield ``(k, 2)`` int64 chunks from an iterable of pairs or of
    pair-arrays (the non-path inputs of :meth:`CSRGraph.from_edge_iter`)."""
    buffer: List[Tuple[int, int]] = []
    for item in source:
        if isinstance(item, np.ndarray):
            if buffer:
                yield np.asarray(buffer, dtype=np.int64).reshape(-1, 2)
                buffer = []
            yield item
        else:
            buffer.append((int(item[0]), int(item[1])))
            if len(buffer) >= chunk_edges:
                yield np.asarray(buffer, dtype=np.int64)
                buffer = []
    if buffer:
        yield np.asarray(buffer, dtype=np.int64)


def _check_edge_chunk(chunk: np.ndarray) -> np.ndarray:
    """Validate one ingest chunk: shape (k, 2), nonnegative ids, no
    self-loops (mirroring :meth:`MultiGraph.add_edge`)."""
    chunk = np.ascontiguousarray(chunk, dtype=np.int64)
    if chunk.ndim != 2 or chunk.shape[1] != 2:
        raise GraphError(
            f"edge chunk must have shape (k, 2), got {chunk.shape}"
        )
    if chunk.size:
        if int(chunk.min()) < 0:
            raise GraphError("edge endpoints must be nonnegative")
        loops = chunk[:, 0] == chunk[:, 1]
        if loops.any():
            where = int(chunk[int(np.flatnonzero(loops)[0]), 0])
            raise GraphError(f"self-loop at vertex {where} is not allowed")
    return chunk


class EdgeArrayMap(Mapping):
    """Array-backed read-only ``edge id -> value`` mapping.

    The orientation / pseudoforest layers historically returned plain
    dicts; at 10^7+ edges that dict alone costs ~1GB of pointerful
    heap.  This class keeps the data as two parallel arrays (edge ids
    in position order, values) and only materializes a dict if a caller
    actually does scalar lookups — the full :class:`Mapping` API
    (``keys`` / ``items`` / ``values`` / ``==`` / iteration) works
    either way, so every existing consumer (validators, ``to_json``,
    the delta engine's bit-identity asserts) sees dict semantics.

    Equality against another :class:`EdgeArrayMap` takes the O(m)
    array fast path with no allocation; against a dict it falls back to
    the Mapping contract (``dict(self) == other``).
    """

    __slots__ = ("eids", "vals", "_dict")

    def __init__(self, eids: np.ndarray, values: np.ndarray) -> None:
        self.eids = eids
        self.vals = values
        self._dict: Optional[Dict[int, int]] = None

    def _materialize(self) -> Dict[int, int]:
        if self._dict is None:
            self._dict = dict(
                zip(self.eids.tolist(), self.vals.tolist())
            )
        return self._dict

    def __getitem__(self, eid: int) -> int:
        return self._materialize()[eid]

    def __iter__(self):
        return iter(self.eids.tolist())

    def __len__(self) -> int:
        return int(self.eids.size)

    def __contains__(self, eid) -> bool:
        return eid in self._materialize()

    def __eq__(self, other) -> bool:
        if isinstance(other, EdgeArrayMap):
            if self.eids is other.eids or np.array_equal(
                self.eids, other.eids
            ):
                return bool(np.array_equal(self.vals, other.vals))
            return self._materialize() == other._materialize()
        if isinstance(other, dict):
            return self._materialize() == other
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None

    def __repr__(self) -> str:
        return f"EdgeArrayMap({len(self)} edges)"


def snapshot_of(graph) -> "CSRGraph":
    """Cached CSR snapshot of a graph (identity for :class:`CSRGraph`).

    The cache lives on the :class:`MultiGraph` instance, keyed by
    :func:`mutation_fingerprint`: a fingerprint hit means the graph is
    unchanged since the snapshot was taken.
    """
    if isinstance(graph, CSRGraph):
        return graph
    fingerprint = mutation_fingerprint(graph)
    cached = graph.__dict__.get("_csr_snapshot_cache")
    if cached is not None and cached[0] == fingerprint:
        return cached[1]
    snapshot = CSRGraph.from_multigraph(graph)
    graph.__dict__["_csr_snapshot_cache"] = (fingerprint, snapshot)
    return snapshot


class CSRGraph:
    """Immutable flat-array snapshot of a :class:`MultiGraph`."""

    __slots__ = (
        "num_vertices",
        "num_edges",
        "vertex_ids",
        "vertex_offsets",
        "neighbor_ids",
        "edge_ids",
        "edge_u",
        "edge_v",
        "edge_id",
        "edge_u_ids",
        "edge_v_ids",
        "_index_of",
        "_identity_edges",
        "_eid_search",
        "_endpoint_lists",
        "_adj_lists",
        "_vertex_id_list",
        "_simple",
        "mmap_dir",
        "__weakref__",
    )

    def __init__(
        self,
        vertex_ids: np.ndarray,
        vertex_offsets: np.ndarray,
        neighbor_ids: np.ndarray,
        edge_ids: np.ndarray,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        edge_id: np.ndarray,
        index_of: Optional[Dict[int, int]],
        identity_edges: bool,
        mmap_dir: Optional[str] = None,
    ) -> None:
        self.num_vertices = int(vertex_ids.shape[0])
        self.num_edges = int(edge_id.shape[0])
        self.vertex_ids = vertex_ids
        self.vertex_offsets = vertex_offsets
        self.neighbor_ids = neighbor_ids
        self.edge_ids = edge_ids
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_id = edge_id
        # Identity vertex numbering means vertex_ids[edge_u] == edge_u
        # element-wise; aliasing instead of gathering keeps out-of-core
        # snapshots from materializing two m-length arrays in RAM
        # (snapshots are immutable, so sharing storage is safe).
        if index_of is None or self.num_edges == 0:
            self.edge_u_ids = edge_u
            self.edge_v_ids = edge_v
        else:
            self.edge_u_ids = vertex_ids[edge_u]
            self.edge_v_ids = vertex_ids[edge_v]
        self._index_of = index_of  # None => identity (ids are 0..n-1)
        self._identity_edges = identity_edges  # ids are 0..m-1
        self._eid_search = None  # built by _eid_index on first lookup
        self._endpoint_lists: Optional[Tuple[Sequence, Sequence]] = None
        self._adj_lists: Optional[Tuple[List[int], List[int]]] = None
        self._vertex_id_list: Optional[List[int]] = None
        self._simple: Optional[bool] = None
        #: directory holding this snapshot's .npy memmaps (None = RAM)
        self.mmap_dir = mmap_dir

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_multigraph(cls, graph: MultiGraph) -> "CSRGraph":
        """Snapshot ``graph``; O(n + m) with vectorized CSR assembly."""
        n = graph.n
        m = graph.m
        vertex_ids = np.fromiter(graph._adj.keys(), dtype=np.int64, count=n)
        identity_vertices = bool(
            n == 0 or np.array_equal(vertex_ids, np.arange(n, dtype=np.int64))
        )
        index_of = (
            None
            if identity_vertices
            else {int(v): i for i, v in enumerate(vertex_ids.tolist())}
        )

        edge_id = np.fromiter(graph._edges.keys(), dtype=np.int64, count=m)
        endpoints = graph._edges.values()
        u_raw = np.fromiter((uv[0] for uv in endpoints), dtype=np.int64, count=m)
        v_raw = np.fromiter((uv[1] for uv in endpoints), dtype=np.int64, count=m)
        if index_of is None:
            edge_u, edge_v = u_raw, v_raw
        else:
            edge_u = np.fromiter(
                (index_of[u] for u in u_raw.tolist()), dtype=np.int64, count=m
            )
            edge_v = np.fromiter(
                (index_of[v] for v in v_raw.tolist()), dtype=np.int64, count=m
            )
        identity_edges = bool(
            m == 0 or np.array_equal(edge_id, np.arange(m, dtype=np.int64))
        )
        vertex_offsets, neighbor_ids, edge_ids = _half_edge_csr(
            n, edge_u, edge_v, edge_id
        )

        return cls(
            vertex_ids,
            vertex_offsets,
            neighbor_ids,
            edge_ids,
            edge_u,
            edge_v,
            edge_id,
            index_of,
            identity_edges,
        )

    @classmethod
    def from_edge_iter(
        cls,
        source,
        n: Optional[int] = None,
        mmap_dir: Optional[str] = None,
        chunk_edges: int = 1 << 20,
    ) -> "CSRGraph":
        """Build a snapshot from a streamed edge list, optionally
        out-of-core.

        ``source`` is a path to an edge-list / SNAP text file (parsed
        in chunks via :func:`repro.graph.io.iter_edge_chunks`), an
        iterable of ``(u, v)`` pairs, or an iterable of ``(k, 2)``
        integer arrays.  Vertex ids must be nonnegative; the snapshot
        covers ``0..n-1`` (``n`` defaults to ``max id + 1``, so gaps
        become isolated vertices) and edge ids are assigned in stream
        order — **byte-identical** to
        ``from_multigraph(MultiGraph.from_edges(n, pairs))``, which the
        equivalence tests assert.

        With ``mmap_dir`` every snapshot array lives in an ``.npy``
        file under that directory (``np.lib.format.open_memmap``), so a
        10^7–10^8-edge graph streams from disk into ``decompose()``
        instead of living in RAM; transient state is one O(n) counter
        array plus one chunk.  The ingest is two counting passes plus
        two cursor-scatter passes that reproduce the stable
        u-side-then-v-side half-edge order of ``_half_edge_csr``
        without ever sorting the full 2m-length arrays.
        """
        if isinstance(source, (str, os.PathLike)):
            from .io import iter_edge_chunks

            chunks = iter_edge_chunks(source, chunk_edges)
        else:
            chunks = _coerce_edge_chunks(source, chunk_edges)

        # -- spool the stream so the later passes can re-read it -------
        max_id = -1
        m = 0
        if mmap_dir is not None:
            os.makedirs(mmap_dir, exist_ok=True)
            spool_path = os.path.join(mmap_dir, "edge-spool.bin")
            with open(spool_path, "wb") as spool:
                for chunk in chunks:
                    chunk = _check_edge_chunk(chunk)
                    if chunk.size:
                        max_id = max(max_id, int(chunk.max()))
                        m += chunk.shape[0]
                        spool.write(chunk.tobytes())
            edges = (
                np.memmap(spool_path, dtype=np.int64, mode="r", shape=(m, 2))
                if m
                else np.empty((0, 2), dtype=np.int64)
            )
        else:
            parts = []
            for chunk in chunks:
                chunk = _check_edge_chunk(chunk)
                if chunk.size:
                    max_id = max(max_id, int(chunk.max()))
                    m += chunk.shape[0]
                    parts.append(chunk)
            edges = (
                np.concatenate(parts)
                if parts
                else np.empty((0, 2), dtype=np.int64)
            )
        if n is None:
            n = max_id + 1
        elif max_id >= n:
            raise GraphError(
                f"edge endpoint {max_id} out of range for n={n} vertices"
            )
        n = int(n)

        def alloc(name: str, shape, dtype=np.int64) -> np.ndarray:
            if mmap_dir is None:
                return np.zeros(shape, dtype=dtype)
            return np.lib.format.open_memmap(
                os.path.join(mmap_dir, f"{name}.npy"),
                mode="w+",
                dtype=dtype,
                shape=shape if isinstance(shape, tuple) else (shape,),
            )

        # -- counting pass: degrees + per-vertex u-side counts ---------
        counts = np.zeros(n, dtype=np.int64)
        count_u = np.zeros(n, dtype=np.int64)
        for lo in range(0, m, chunk_edges):
            block = np.asarray(edges[lo : lo + chunk_edges])
            bu = np.bincount(block[:, 0], minlength=n)
            count_u += bu
            counts += bu
            counts += np.bincount(block[:, 1], minlength=n)

        vertex_offsets = alloc("vertex_offsets", n + 1)
        np.cumsum(counts, out=vertex_offsets[1:])
        vertex_offsets[0] = 0
        del counts

        neighbor_ids = alloc("neighbor_ids", 2 * m)
        edge_ids = alloc("edge_ids", 2 * m)
        edge_u = alloc("edge_u", m)
        edge_v = alloc("edge_v", m)
        edge_id = alloc("edge_id", m)
        vertex_ids = alloc("vertex_ids", n)
        for lo in range(0, n, chunk_edges):
            hi = min(n, lo + chunk_edges)
            vertex_ids[lo:hi] = np.arange(lo, hi, dtype=np.int64)
        for lo in range(0, m, chunk_edges):
            hi = min(m, lo + chunk_edges)
            edge_id[lo:hi] = np.arange(lo, hi, dtype=np.int64)

        # -- scatter passes: u-side halves first, then v-side ----------
        # ``_half_edge_csr`` stable-sorts concat(u-block, v-block) by
        # source, so within each vertex all u-side half-edges appear in
        # edge-position order, then all v-side ones.  Two cursor passes
        # over the stream write exactly that layout.
        cursor = np.asarray(vertex_offsets[:n]).copy()
        for side in (0, 1):
            for lo in range(0, m, chunk_edges):
                hi = min(m, lo + chunk_edges)
                block = np.asarray(edges[lo:hi])
                src = block[:, side]
                dst = block[:, 1 - side]
                if side == 0:
                    edge_u[lo:hi] = src
                    edge_v[lo:hi] = dst
                order = np.argsort(src, kind="stable")
                src_sorted = src[order]
                run_starts = np.flatnonzero(
                    np.concatenate(
                        ([True], src_sorted[1:] != src_sorted[:-1])
                    )
                ) if src_sorted.size else np.empty(0, dtype=np.int64)
                run_lengths = np.diff(
                    np.concatenate((run_starts, [src_sorted.size]))
                )
                rank = np.arange(
                    src_sorted.size, dtype=np.int64
                ) - np.repeat(run_starts, run_lengths)
                slots = cursor[src_sorted] + rank
                neighbor_ids[slots] = dst[order]
                edge_ids[slots] = lo + order
                cursor[src_sorted[run_starts]] += run_lengths
            if side == 0:
                # v-side halves start after each vertex's u-side block.
                cursor = np.asarray(vertex_offsets[:n]) + count_u
        del count_u

        if mmap_dir is not None:
            for arr in (
                vertex_offsets, neighbor_ids, edge_ids,
                edge_u, edge_v, edge_id, vertex_ids,
            ):
                arr.flush()
            del edges
            os.remove(spool_path)

        return cls(
            vertex_ids,
            vertex_offsets,
            neighbor_ids,
            edge_ids,
            edge_u,
            edge_v,
            edge_id,
            None,
            True,
            mmap_dir=mmap_dir,
        )

    # ------------------------------------------------------------------
    # MultiGraph-compatible surface
    # ------------------------------------------------------------------
    #
    # The traversal layer and the network decomposition accept either
    # substrate; these make a snapshot answer the (read-only) subset of
    # the MultiGraph API those algorithms touch.

    @property
    def n(self) -> int:
        """Number of vertices (MultiGraph-compatible)."""
        return self.num_vertices

    @property
    def m(self) -> int:
        """Number of edges, counting multiplicities (MultiGraph-compatible)."""
        return self.num_edges

    def vertices(self) -> List[int]:
        """Original vertex ids, in the source graph's insertion order."""
        return list(self.vertex_id_list())

    def has_vertex(self, vertex: int) -> bool:
        try:
            self.index_of(vertex)
        except GraphError:
            return False
        return True

    def neighbors(self, vertex: int) -> List[int]:
        """Distinct neighboring vertex ids (in dense-index order)."""
        i = self.index_of(vertex)
        start, stop = self.incident_slice(i)
        distinct = _sorted_unique(self.neighbor_ids[start:stop])
        return self.vertex_ids[distinct].tolist()

    def edges(self):
        """Iterate ``(eid, u, v)`` triples in edge-position order."""
        return zip(
            self.edge_id.tolist(),
            self.edge_u_ids.tolist(),
            self.edge_v_ids.tolist(),
        )

    # ------------------------------------------------------------------
    # Vertex-level queries
    # ------------------------------------------------------------------

    def index_of(self, vertex: int) -> int:
        """Dense index of an original vertex id."""
        if self._index_of is None:
            if 0 <= vertex < self.num_vertices:
                return vertex
            raise GraphError(f"vertex {vertex} does not exist")
        try:
            return self._index_of[vertex]
        except KeyError:
            raise GraphError(f"vertex {vertex} does not exist") from None

    def degree(self, vertex: int) -> int:
        """Degree of an original vertex id (parallel edges counted); O(1)."""
        i = self.index_of(vertex)
        return int(self.vertex_offsets[i + 1] - self.vertex_offsets[i])

    def is_simple(self) -> bool:
        """True if no pair of vertices has parallel edges.

        Answered once per snapshot (it is immutable): one sort of the
        edges' endpoint-pair keys.
        """
        if self._simple is None:
            low = np.minimum(self.edge_u, self.edge_v)
            high = np.maximum(self.edge_u, self.edge_v)
            keys = low * self.num_vertices + high
            self._simple = bool(_sorted_unique(keys).size == self.num_edges)
        return self._simple

    def degrees(self) -> np.ndarray:
        """Degrees of all vertices, indexed by dense vertex index."""
        return np.diff(self.vertex_offsets)

    def incident_slice(self, index: int) -> Tuple[int, int]:
        """Half-edge range ``[start, stop)`` of vertex index ``index``."""
        return int(self.vertex_offsets[index]), int(self.vertex_offsets[index + 1])

    def endpoints(self, eid: int) -> Tuple[int, int]:
        """Original ``(u, v)`` vertex ids of edge ``eid``."""
        pos = eid if self._identity_edges else int(self.edge_positions([eid])[0])
        return int(self.edge_u_ids[pos]), int(self.edge_v_ids[pos])

    def endpoint_maps(self) -> Tuple[Sequence, Sequence]:
        """Scalar-fast ``eid -> endpoint id`` lookups ``(u_of, v_of)``.

        Plain Python lists indexed by edge id when edge ids are dense
        (the common case), dicts otherwise — both support ``obj[eid]``
        and beat repeated numpy scalar indexing in tight loops.
        """
        if self._endpoint_lists is None:
            u_ids = self.edge_u_ids.tolist()
            v_ids = self.edge_v_ids.tolist()
            if self._identity_edges:
                self._endpoint_lists = (u_ids, v_ids)
            else:
                eids = self.edge_id.tolist()
                self._endpoint_lists = (
                    dict(zip(eids, u_ids)),
                    dict(zip(eids, v_ids)),
                )
        return self._endpoint_lists

    def adjacency_lists(self) -> Tuple[List[int], List[int]]:
        """``(vertex_offsets, neighbor_ids)`` as cached Python lists.

        Scalar peeling loops (delete-min) index these millions of
        times; list indexing returns native ints, unlike numpy scalar
        indexing, which is several times slower in tight loops.
        """
        if self._adj_lists is None:
            self._adj_lists = (
                self.vertex_offsets.tolist(),
                self.neighbor_ids.tolist(),
            )
        return self._adj_lists

    def vertex_id_list(self) -> List[int]:
        """``vertex_ids`` as a cached Python list (scalar-loop companion)."""
        if self._vertex_id_list is None:
            self._vertex_id_list = self.vertex_ids.tolist()
        return self._vertex_id_list

    # ------------------------------------------------------------------
    # Set / mask helpers (the CUT region primitives)
    # ------------------------------------------------------------------

    def mask_of(self, vertices: Iterable[int]) -> np.ndarray:
        """Boolean membership mask over dense indices from original ids."""
        mask = np.zeros(self.num_vertices, dtype=bool)
        if self._index_of is None:
            ids = np.fromiter(vertices, dtype=np.int64)
            if ids.size and (
                int(ids.min()) < 0 or int(ids.max()) >= self.num_vertices
            ):
                bad = ids[(ids < 0) | (ids >= self.num_vertices)][0]
                raise GraphError(f"vertex {int(bad)} does not exist")
            mask[ids] = True
        else:
            for vertex in vertices:
                mask[self.index_of(vertex)] = True
        return mask

    def vertex_set_from_mask(self, mask: np.ndarray) -> Set[int]:
        """Original vertex ids selected by a dense-index mask."""
        return set(self.vertex_ids[mask].tolist())

    def neighborhood_mask(
        self, sources: Iterable[int], radius: Optional[int]
    ) -> np.ndarray:
        """``N^r(X)`` as a dense-index mask: the vertices
        :func:`bfs_distance_array` reaches within ``radius``."""
        seeds = np.flatnonzero(self.mask_of(sources))
        return self.distance_array(seeds, radius) >= 0

    def neighborhood_set(
        self, sources: Iterable[int], radius: Optional[int]
    ) -> Set[int]:
        """``N^r(X)`` as a set of original vertex ids (drop-in for
        :func:`repro.graph.traversal.neighborhood`)."""
        return self.vertex_set_from_mask(self.neighborhood_mask(sources, radius))

    # ------------------------------------------------------------------
    # Traversal primitives (frontier-array BFS)
    # ------------------------------------------------------------------

    def distance_array(
        self, source_indices: Sequence[int], radius: Optional[int] = None
    ) -> np.ndarray:
        """Multi-source BFS distances over dense indices (-1 unreached).

        One frontier-vectorized sweep; vertices beyond ``radius`` (if
        given) stay at -1.
        """
        return bfs_distance_array(
            self.vertex_offsets,
            self.neighbor_ids,
            self.num_vertices,
            source_indices,
            radius,
        )

    def component_labels(self) -> np.ndarray:
        """Connected-component label per dense index: the minimum dense
        index of the component, via min-label propagation with pointer
        jumping (O(log n) rounds of O(m) array work)."""
        labels = np.arange(self.num_vertices, dtype=np.int64)
        if self.num_edges == 0 or self.num_vertices == 0:
            return labels
        u, v = self.edge_u, self.edge_v
        while True:
            nxt = labels.copy()
            np.minimum.at(nxt, u, labels[v])
            np.minimum.at(nxt, v, labels[u])
            while True:
                hop = nxt[nxt]
                if np.array_equal(hop, nxt):
                    break
                nxt = hop
            if np.array_equal(nxt, labels):
                return labels
            labels = nxt

    def power_csr(self, radius: int) -> "CSRGraph":
        """The power graph ``G^radius`` as a fresh simple CSR snapshot.

        Runs one BFS per block of sources over boolean
        reachability matrices and assembles the CSR adjacency directly
        from the visited masks; no dict multigraph is materialized.
        Vertex ids (and their order) are
        shared with this snapshot; power-edge ids are dense ``0..m'-1``
        assigned in (u, v) dense-index lexicographic order.
        """
        if radius < 1:
            raise GraphError(f"power graph radius must be >= 1, got {radius}")
        n = self.num_vertices
        offsets = self.vertex_offsets
        nbr = self.neighbor_ids
        # Block size bounds the boolean reachability matrix at ~2M cells.
        block = max(1, min(n, 2_000_000 // max(1, n)))
        src_parts: List[np.ndarray] = []
        dst_parts: List[np.ndarray] = []
        for start in range(0, n, block):
            sources = np.arange(start, min(start + block, n), dtype=np.int64)
            b = sources.size
            visited = np.zeros((b, n), dtype=bool)
            visited[np.arange(b), sources] = True
            frontier = visited.copy()
            depth = 0
            while depth < radius:
                rows, cols = np.nonzero(frontier)
                if rows.size == 0:
                    break
                lengths = offsets[cols + 1] - offsets[cols]
                half = _concat_ranges(offsets[cols], offsets[cols + 1])
                fresh = np.zeros_like(visited)
                fresh[np.repeat(rows, lengths), nbr[half]] = True
                fresh &= ~visited
                visited |= fresh
                frontier = fresh
                depth += 1
            rows, cols = np.nonzero(visited)
            src = sources[rows]
            keep = src != cols  # drop the distance-0 self-pairs
            src_parts.append(src[keep])
            dst_parts.append(cols[keep])

        if src_parts:
            half_src = np.concatenate(src_parts)
            half_dst = np.concatenate(dst_parts)
        else:
            half_src = np.empty(0, dtype=np.int64)
            half_dst = np.empty(0, dtype=np.int64)
        # Blocks emit sources in ascending order and np.nonzero is
        # row-major, so (half_src, half_dst) is already lexicographically
        # sorted: it IS the CSR adjacency.
        counts = (
            np.bincount(half_src, minlength=n)
            if half_src.size
            else np.zeros(n, np.int64)
        )
        power_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=power_offsets[1:])
        forward = half_src < half_dst
        edge_u = half_src[forward]
        edge_v = half_dst[forward]
        edge_id = np.arange(edge_u.size, dtype=np.int64)
        # Reachability is symmetric, so every half-edge's (min, max) key
        # appears among the forward pairs; the forward pairs are sorted
        # by construction, so ids resolve by binary search.
        if half_src.size:
            edge_keys = edge_u * n + edge_v
            half_keys = (
                np.minimum(half_src, half_dst) * n
                + np.maximum(half_src, half_dst)
            )
            half_eids = np.searchsorted(edge_keys, half_keys)
        else:
            half_eids = np.empty(0, dtype=np.int64)
        return CSRGraph(
            self.vertex_ids,
            power_offsets,
            half_dst,
            half_eids,
            edge_u,
            edge_v,
            edge_id,
            self._index_of,
            True,
        )

    # ------------------------------------------------------------------
    # Subgraph extraction (per-color / induced sub-CSR)
    # ------------------------------------------------------------------

    def edge_positions(self, eids: Sequence[int]) -> np.ndarray:
        """Dense edge positions of the given original edge ids.

        Unless the ids are ``0..m-1``, one binary search over the
        ascending ids resolves the whole batch; ``KeyError`` names the
        first unknown id.
        """
        eids = np.asarray(eids, dtype=np.int64)
        if self._identity_edges:
            return eids
        keys, perm = self._eid_index()
        found = np.searchsorted(keys, eids)
        clipped = np.minimum(found, keys.size - 1)
        bad = (found >= keys.size) | (keys[clipped] != eids)
        if bad.any():
            raise KeyError(int(eids[bad][0]))
        return found if perm is None else perm[found]

    def _eid_index(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(ascending edge ids, their positions)``, built on first use;
        the positions are None when ``edge_id`` itself ascends.

        Snapshots of a ``MultiGraph`` list ids in insertion order, which
        ascends (as do the delta engine's spliced ids), so the ids are
        their own search keys and positions need no permutation.  An
        ``edge_subgraph`` taken from an unsorted id list does not
        ascend; it keeps the stable argsort of ``edge_id``.
        """
        if self._eid_search is None:
            edge_id = self.edge_id
            if bool(np.all(edge_id[1:] > edge_id[:-1])):
                self._eid_search = (edge_id, None)
            else:
                perm = np.argsort(edge_id, kind="stable")
                self._eid_search = (edge_id[perm], perm)
        return self._eid_search

    def edge_subset_csr_arrays(
        self, eids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR adjacency ``(offsets, neighbors, edge ids)`` of the
        subgraph formed by ``eids``, over this snapshot's dense indices.

        This is the per-color extraction primitive: a color class is an
        edge subset, and its BFS runs on these arrays at kernel speed.
        """
        positions = self.edge_positions(eids)
        return _half_edge_csr(
            self.num_vertices,
            self.edge_u[positions],
            self.edge_v[positions],
            self.edge_id[positions],
        )

    def induced_sub_csr(
        self, members: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Compacted CSR adjacency ``(offsets, neighbors)`` of the
        subgraph induced by sorted unique dense indices ``members``,
        relabeled to local indices ``0..k-1``.

        Work is proportional to the members' incident half-edges (plus
        one O(n) relabel table), so per-cluster queries stay cheap on
        large host graphs.
        """
        k = int(members.size)
        local = np.full(self.num_vertices, -1, dtype=np.int64)
        local[members] = np.arange(k, dtype=np.int64)
        starts = self.vertex_offsets[members]
        ends = self.vertex_offsets[members + 1]
        half = _concat_ranges(starts, ends)
        src_local = np.repeat(np.arange(k, dtype=np.int64), ends - starts)
        dst_local = local[self.neighbor_ids[half]]
        keep = dst_local >= 0
        src_local = src_local[keep]
        dst_local = dst_local[keep]
        counts = (
            np.bincount(src_local, minlength=k)
            if src_local.size
            else np.zeros(k, np.int64)
        )
        offsets = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return offsets, dst_local

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges})"


def degeneracy_peel(snapshot: CSRGraph) -> Tuple[int, List[int]]:
    """Delete-min peel: repeatedly remove the live vertex minimizing
    ``(remaining degree, vertex id)``.

    Returns ``(d, order)``: the largest degree a vertex had when it was
    removed (the degeneracy) and the dense indices in removal order.
    Remaining degree counts parallel edges, and ties break on original
    vertex id, matching the dict-backed heap of the test reference
    entry for entry.

    A bucket queue holds one small min-heap per remaining degree.  Each
    heap holds vertex *ranks* (positions in ascending-id order), so the
    id tie-break is one int comparison whatever the ids are.  Stale
    entries (a removed vertex, or one whose degree dropped since the
    push) are skipped lazily; degrees only decrease.
    """
    n = snapshot.num_vertices
    offsets, neighbors = snapshot.adjacency_lists()
    remaining = snapshot.degrees().tolist()
    by_id = np.argsort(snapshot.vertex_ids, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[by_id] = np.arange(n, dtype=np.int64)
    rank = ranks.tolist()
    at_rank = by_id.tolist()
    # Ranks are appended in ascending order, so each bucket starts as a
    # valid min-heap.
    buckets: List[List[int]] = [[] for _ in range(max(remaining, default=0) + 1)]
    for r, i in enumerate(at_rank):
        buckets[remaining[i]].append(r)
    alive = [True] * n
    heappop = heapq.heappop
    heappush = heapq.heappush
    order: List[int] = []
    degeneracy = 0
    deg = 0
    for _ in range(n):
        while True:
            while not buckets[deg]:
                deg += 1
            index = at_rank[heappop(buckets[deg])]
            if alive[index] and remaining[index] == deg:
                break
        alive[index] = False
        order.append(index)
        if deg > degeneracy:
            degeneracy = deg
        for half in range(offsets[index], offsets[index + 1]):
            j = neighbors[half]
            if alive[j]:
                degree = remaining[j] - 1
                remaining[j] = degree
                heappush(buckets[degree], rank[j])
                if degree < deg:
                    deg = degree
    return degeneracy, order


# ----------------------------------------------------------------------
# Forest rooting on the kernel
# ----------------------------------------------------------------------


class ForestArrays:
    """Array form of a rooted forest: per dense vertex index, BFS depth
    (-1 when unspanned) and parent edge id (-1 for roots/unspanned)."""

    __slots__ = ("snapshot", "depth", "parent_eid", "roots", "max_depth")

    def __init__(
        self,
        snapshot: CSRGraph,
        depth: np.ndarray,
        parent_eid: np.ndarray,
        roots: List[int],
    ) -> None:
        self.snapshot = snapshot
        self.depth = depth
        self.parent_eid = parent_eid
        self.roots = roots
        # Clamp at 0: an edgeless forest has depth -1 everywhere but,
        # like RootedForest.max_depth(), reports depth 0.
        self.max_depth = max(0, int(depth.max())) if depth.size else 0


def rooted_forest_arrays(
    snapshot: CSRGraph,
    eids: Sequence[int],
    preferred_roots: Optional[Iterable[int]] = None,
) -> ForestArrays:
    """Root the forest formed by ``eids``, entirely on flat arrays.

    Root selection matches :class:`repro.graph.forests.RootedForest`:
    each tree is rooted at its smallest preferred vertex if any member
    of ``preferred_roots`` is present, else at its minimum vertex id.
    Raises :class:`GraphError` when the edges contain a cycle.

    A union-find pass validates acyclicity and groups components; one
    multi-source frontier-vectorized BFS then assigns depths and parent
    edges (unique in a forest, so no tie-breaking is needed).
    """
    n = snapshot.num_vertices
    depth = np.full(n, -1, dtype=np.int64)
    parent_eid = np.full(n, -1, dtype=np.int64)
    eid_list = list(eids)
    if not eid_list:
        return ForestArrays(snapshot, depth, parent_eid, [])

    positions = snapshot.edge_positions(eid_list)
    sub_u = snapshot.edge_u[positions]
    sub_v = snapshot.edge_v[positions]
    sub_eid = snapshot.edge_id[positions]

    # Union-find: validate forest, group components.
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(sub_u.tolist(), sub_v.tolist()):
        if a not in parent:
            parent[a] = a
        if b not in parent:
            parent[b] = b
        ra, rb = find(a), find(b)
        if ra == rb:
            raise GraphError("edge set is not a forest")
        parent[rb] = ra

    vertex_ids = snapshot.vertex_ids
    preferred = set(preferred_roots) if preferred_roots is not None else set()
    best: Dict[int, Tuple[int, int]] = {}  # component rep -> (best key, index)
    for index in parent:
        rep = find(index)
        vid = int(vertex_ids[index])
        key = (0, vid) if vid in preferred else (1, vid)
        if rep not in best or key < best[rep][0]:
            best[rep] = (key, index)
    roots = [index for _key, index in best.values()]

    # Sub-CSR over the forest edges, then one multi-source BFS.
    sub_offsets, sub_nbr, sub_edge = _half_edge_csr(n, sub_u, sub_v, sub_eid)

    frontier = np.asarray(sorted(roots), dtype=np.int64)
    depth[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        half = _concat_ranges(sub_offsets[frontier], sub_offsets[frontier + 1])
        targets = sub_nbr[half]
        via = sub_edge[half]
        fresh = depth[targets] < 0
        targets, via = targets[fresh], via[fresh]
        depth[targets] = level
        parent_eid[targets] = via
        frontier = targets

    return ForestArrays(snapshot, depth, parent_eid, sorted(roots))


def rooted_forest_class_depths(
    snapshot: CSRGraph,
    class_positions: Sequence[np.ndarray],
) -> Tuple[List[Tuple[np.ndarray, np.ndarray, np.ndarray]], int]:
    """Root *every* color class's forest in one stacked, fully
    vectorized computation — the kernel behind the csr depth cut.

    ``class_positions`` holds one array of snapshot edge positions per
    color class.  Classes are stacked into a single disjoint forest
    over synthetic nodes ``class_index * n + vertex_index``, which is
    validated and rooted as a whole: leaf peeling consumes the forest
    inward (proving acyclicity exactly like the union-find on the
    per-class path — a cycle core never reaches degree 1 and trips the
    same :class:`GraphError`), pointer doubling labels each node with
    its tree, every tree is rooted at its minimum original vertex id
    (matching :class:`~repro.graph.forests.RootedForest` and
    :func:`rooted_forest_arrays` root selection), and one multi-source
    BFS assigns depths to all classes at once — wave count is
    the *maximum* tree depth over classes instead of the per-class sum,
    and no per-class python union-find or O(n) scratch is allocated.

    Returns ``(per_class, waves)`` where ``per_class[i]`` is
    ``(depth_u, depth_v, child_vertex_ids)`` aligned with
    ``class_positions[i]`` — exactly the arrays the per-class
    :func:`rooted_forest_arrays` cut path derives — and ``waves``
    counts the frontier-synchronous sweeps (peel + label + BFS).
    """
    sizes = [int(len(p)) for p in class_positions]
    total = sum(sizes)
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return [(empty, empty, empty) for _ in sizes], 0

    n = snapshot.num_vertices
    all_pos = np.concatenate(
        [np.asarray(p, dtype=np.int64) for p in class_positions]
    )
    cls = np.repeat(
        np.arange(len(sizes), dtype=np.int64),
        np.asarray(sizes, dtype=np.int64),
    )
    key_u = cls * n + snapshot.edge_u[all_pos]
    key_v = cls * n + snapshot.edge_v[all_pos]

    count_edges = int(all_pos.size)
    nodes, inverse = np.unique(
        np.concatenate((key_u, key_v)), return_inverse=True
    )
    su = inverse[:count_edges]
    sv = inverse[count_edges:]
    count_nodes = int(nodes.size)

    offsets, nbr, nbr_edge = _half_edge_csr(
        count_nodes, su, sv, np.arange(count_edges, dtype=np.int64)
    )
    deg = (offsets[1:] - offsets[:-1]).astype(np.int64)
    # XOR of incident edge indices: when a node's degree reaches 1 the
    # accumulator *is* its unique remaining edge.  Safe because every
    # stacked node comes from an edge endpoint (degree >= 1).
    exor = np.bitwise_xor.reduceat(nbr_edge, offsets[:-1])

    parent_node = np.full(count_nodes, -1, dtype=np.int64)
    peeled = np.zeros(count_nodes, dtype=bool)
    waves = 0
    peeled_count = 0
    frontier = np.nonzero(deg == 1)[0]
    while frontier.size:
        waves += 1
        edge = exor[frontier]
        nb = np.where(su[edge] == frontier, sv[edge], su[edge])
        # A two-leaf tree (or a final path segment) peels both
        # endpoints in the same wave; keep the smaller node as the
        # survivor so every tree retains exactly one unpeeled center.
        pair = (deg[nb] == 1) & (exor[nb] == edge)
        peel = ~pair | (frontier > nb)
        peel_nodes = frontier[peel]
        peel_nb = nb[peel]
        parent_node[peel_nodes] = peel_nb
        peeled[peel_nodes] = True
        peeled_count += int(peel_nodes.size)
        deg[peel_nodes] = 0
        touched = apply_degree_decrements(deg, peel_nb, count_nodes)
        np.bitwise_xor.at(exor, peel_nb, edge[peel])
        frontier = touched[(deg[touched] == 1) & ~peeled[touched]]
    if peeled_count != count_edges:
        raise GraphError("edge set is not a forest")

    # Pointer doubling: label every node with its tree's center.
    label = np.where(peeled, parent_node, np.arange(count_nodes))
    while True:
        waves += 1
        advanced = label[label]
        if np.array_equal(advanced, label):
            break
        label = advanced

    # Root each tree at its minimum original vertex id (vertex ids are
    # unique within a class, so the minimum is unambiguous).
    node_vid = snapshot.vertex_ids[nodes % n]
    order = np.lexsort((node_vid, label))
    sorted_labels = label[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = sorted_labels[1:] != sorted_labels[:-1]
    roots = order[first]

    # One multi-source BFS over the whole stack; a forest reaches each
    # node exactly once, so no per-level dedup is needed.
    depth_s = np.full(count_nodes, -1, dtype=np.int64)
    depth_s[roots] = 0
    frontier = roots
    level = 0
    while frontier.size:
        waves += 1
        level += 1
        half = _concat_ranges(offsets[frontier], offsets[frontier + 1])
        targets = nbr[half]
        targets = targets[depth_s[targets] < 0]
        depth_s[targets] = level
        frontier = targets

    du_all = depth_s[su]
    dv_all = depth_s[sv]
    child_all = np.where(
        du_all > dv_all,
        snapshot.edge_u_ids[all_pos],
        snapshot.edge_v_ids[all_pos],
    )
    bounds = np.cumsum(np.asarray(sizes, dtype=np.int64))[:-1]
    per_class = list(
        zip(
            np.split(du_all, bounds),
            np.split(dv_all, bounds),
            np.split(child_all, bounds),
        )
    )
    return per_class, waves
