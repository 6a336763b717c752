"""Engine-backed BFS primitives (the second wave family).

:func:`repro.graph.csr.bfs_distance_array` is the serial reference
sweep: per wave it gathers the frontier's half-edges and dedups the
candidate targets with ``np.unique`` (a sort).  This module runs the
same sweep through the :class:`~repro.parallel.engine.WaveEngine`:

* the **shard phase** gathers each frontier group's raw neighbor
  candidates (pure reads of frozen CSR arrays, GIL-releasing slices,
  fanned out along shard boundaries when the wave is big enough);
* the **reconcile** dedups the concatenated candidates and writes the
  distance array once per wave — and on dense waves it dedups with a
  scatter mask in O(n + |half|) instead of the sort's
  O(|half| log |half|), which is where the single-core speedup of the
  ``parallel`` traversal backend comes from (mirroring the sharded
  peel's frontier-proportional reconcile; see ``bench_parallel_bfs``).

Outputs are **bit-identical** to the serial sweep for every worker
count and shard plan: candidate sets are dedup-order-free, scatter and
sort both produce the ascending unique array, and the distance write
is one batched assignment either way.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import GraphError
from ..graph.csr import _concat_ranges
from .engine import WaveEngine

__all__ = [
    "parallel_bfs_distance_array",
    "frontier_candidates",
    "induced_eccentricity_sweep",
    "resolve_claims",
    "segment_kth_largest",
    "DENSE_WAVE_DIVISOR",
]

#: a wave whose candidate gather is at least ``n / DENSE_WAVE_DIVISOR``
#: half-edges dedups via scatter mask instead of sort — O(n + h) vs
#: O(h log h), identical ascending-unique output.
DENSE_WAVE_DIVISOR = 8


def resolve_claims(
    targets: np.ndarray,
    priorities: np.ndarray,
    limit: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministically resolve contested writes of one wave.

    ``targets`` and ``priorities`` are parallel arrays of proposals
    (several shard kernels may propose the same target with different
    priorities); the winner of each target is its **minimum** priority.
    Returns ``(winning targets ascending, their priorities)``.

    The resolution is *order-free*: every permutation or concatenation
    order of the proposal arrays produces byte-identical output, which
    is what lets a reconcile phase built on it keep the engine's
    "bit-identical for every worker count x shard plan" contract.

    ``limit`` is an exclusive upper bound on the priority values.  When
    ``max(target) * limit`` fits comfortably in int64 the proposals
    pack into single keys (one flat sort); otherwise a lexsort runs the
    same resolution without packing.
    """
    if targets.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    targets = targets.astype(np.int64, copy=False)
    priorities = priorities.astype(np.int64, copy=False)
    span = int(limit)
    if span > 0 and (int(targets.max()) + 1) * span < (1 << 62):
        keys = targets * span + priorities
        keys.sort()
        owners = keys // span
        first = np.ones(owners.size, dtype=bool)
        np.not_equal(owners[1:], owners[:-1], out=first[1:])
        winners = keys[first]
        return winners // span, winners % span
    order = np.lexsort((priorities, targets))
    targets = targets[order]
    priorities = priorities[order]
    first = np.ones(targets.size, dtype=bool)
    np.not_equal(targets[1:], targets[:-1], out=first[1:])
    return targets[first], priorities[first]


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
    segments shorter than ``k + 1``.  One lexsort over the whole batch —
    this is the order-statistic kernel of the delta engine's dirty-region
    work lists (the H-partition fixed point reads "one plus the
    ``(t+1)``-th largest neighbor wave"), shaped like the other reconcile
    primitives here: pure function of its inputs, no per-segment Python.
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


def frontier_candidates(
    offsets: np.ndarray,
    neighbors: np.ndarray,
    frontier: np.ndarray,
    engine: Optional[WaveEngine] = None,
) -> np.ndarray:
    """Raw neighbor candidates (with duplicates) of an ascending
    frontier — ``neighbors[half]`` of the serial sweep, shard-fanned
    through the engine when the wave passes the gate."""

    if engine is None:
        half = _concat_ranges(offsets[frontier], offsets[frontier + 1])
        return neighbors[half]
    cost = int((offsets[frontier + 1] - offsets[frontier]).sum())

    def kernel(part: np.ndarray) -> np.ndarray:
        half = _concat_ranges(offsets[part], offsets[part + 1])
        return neighbors[half]

    return engine.gather(kernel, frontier, cost)


def parallel_bfs_distance_array(
    offsets: np.ndarray,
    neighbors: np.ndarray,
    n: int,
    seeds: Sequence[int],
    radius: Optional[int] = None,
    engine: Optional[WaveEngine] = None,
) -> np.ndarray:
    """Multi-source BFS distances, bit-identical to
    :func:`repro.graph.csr.bfs_distance_array` (-1 unreached, stop at
    ``radius``), with each wave's gather run through the engine and a
    scatter-dedup reconcile on dense waves."""
    dist = np.full(n, -1, dtype=np.int64)
    if len(seeds) == 0:
        return dist
    frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    # Same seed validation as the serial sweep: negative seeds would
    # silently wrap under fancy indexing, out-of-range ones would raise
    # a bare IndexError mid-sweep.
    if frontier[0] < 0 or frontier[-1] >= n:
        bad = frontier[0] if frontier[0] < 0 else frontier[-1]
        raise GraphError(
            f"BFS seed index {int(bad)} out of range for {n} vertices"
        )
    dist[frontier] = 0
    depth = 0
    while frontier.size and (radius is None or depth < radius):
        candidates = frontier_candidates(offsets, neighbors, frontier, engine)
        depth += 1
        if candidates.size * DENSE_WAVE_DIVISOR >= n:
            mask = np.zeros(n, dtype=bool)
            mask[candidates] = True
            mask &= dist < 0
            targets = np.flatnonzero(mask)
        else:
            targets = np.unique(candidates)
            targets = targets[dist[targets] < 0]
        dist[targets] = depth
        frontier = targets
    return dist


def induced_eccentricity_sweep(
    offsets: np.ndarray,
    neighbors: np.ndarray,
    k: int,
    engine: Optional[WaveEngine] = None,
) -> Tuple[int, bool]:
    """``(max eccentricity, connected)`` of a compacted sub-CSR on
    ``k`` local indices: one BFS per source, sources chunked across
    the engine's workers (each chunk's sweeps run serially inside a
    worker — nesting pool dispatch inside pool workers would deadlock
    small pools).  The max is order-free, and connectivity is uniform
    across sources (any BFS reaches exactly its component), so chunked
    results reconcile to exactly the serial answer."""

    if engine is None:
        return _ecc_block_impl(offsets, neighbors, k, 0, k)

    def block(lo: int, hi: int) -> Tuple[int, bool]:
        return _ecc_block_impl(offsets, neighbors, k, lo, hi)

    # Each source's sweep touches >= k vertices, so k*k lower-bounds
    # the scan's work — the gate that keeps tiny clusters inline.
    results = engine.map_ranges(block, k, cost=k * k)
    best = max((ecc for ecc, _ok in results), default=0)
    connected = all(ok for _ecc, ok in results)
    return best, connected


def _ecc_block_impl(
    offsets: np.ndarray,
    neighbors: np.ndarray,
    k: int,
    lo: int,
    hi: int,
) -> Tuple[int, bool]:
    """One source block of the eccentricity sweep: serial per-source
    BFS, early exit on the first disconnected source."""
    best = 0
    for start in range(lo, hi):
        dist = parallel_bfs_distance_array(offsets, neighbors, k, [start])
        if int((dist >= 0).sum()) != k:
            return best, False
        best = max(best, int(dist.max()))
    return best, True
