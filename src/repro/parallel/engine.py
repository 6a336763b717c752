"""The shared parallel wave engine.

Every scaling substrate in this library executes the same shape of
computation: a **frontier-synchronous wave**.  Degree peeling
(H-partition, Theorem 2.3), multi-seed BFS (ball carving for network
decomposition, per-color-class diameter scans in LSFD / list-forest),
and forest rooting all alternate

1. a **shard phase** — per-shard kernels that only *read* frozen
   shared state (degree arrays, distance arrays, visited masks) and
   produce per-shard result arrays, and
2. a **reconcile phase** — one batched, deterministic update of the
   shared state from the concatenated shard results, which also
   yields the next wave's work-list.

PR 4 built this machinery inside ``repro.graph.shard`` for peeling
only; this module lifts it out so every wave-shaped hot path runs on
one engine instead of per-subsystem copies.

Determinism contract
--------------------

The engine guarantees that fanning a wave out over worker threads is
**invisible in the output**:

* work splits along :class:`~repro.parallel.plan.ShardPlan`
  boundaries, and a plan is a pure function of the snapshot — never
  of the worker count;
* kernels receive disjoint ascending slices and only read frozen
  state, so their results are independent of scheduling;
* per-shard results concatenate in plan order, reproducing the serial
  gather byte for byte;
* the fan-out *gate* reads only wave content (work-list size, summed
  half-edges), never timing, so whether a wave ran inline or on the
  pool cannot perturb results.

Clients therefore satisfy "bit-identical for every worker count" by
construction; the equivalence suite asserts it across workers in
{1, 2, 4} and shard counts {1, 3, 7}.

Worker pool
-----------

Workers are **threads** (one shared :class:`ThreadPoolExecutor` per
worker count): the kernels are numpy slice/gather operations, which
release the GIL, so threads overlap on multi-core machines while
sharing the snapshot arrays zero-copy — no pickling, no shared-memory
segment lifecycle, no fork-safety constraints on user code.  Pools are
owned by this module: created on first use, reused across engines,
shut down by :func:`shutdown` (registered via ``atexit``), with
aggregate stats exposed by :func:`pool_stats` (surfaced through
``Session.cache_info()``).

``REPRO_SHARD_WORKERS`` is read **once** (first ``workers=0``
resolution) and caches as the auto worker count; previously each
forced-sharded peel re-read the environment.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional

import numpy as np

from ..errors import GraphError
from .plan import ShardPlan, plan_of

__all__ = [
    "WaveEngine",
    "engine_for",
    "engine_for_offsets",
    "resolve_workers",
    "shutdown",
    "pool_stats",
    "FAN_OUT_MIN_HALF_EDGES",
    "FAN_OUT_MIN_SCAN_VERTICES",
    "MAX_AUTO_WORKERS",
]

#: waves whose kernels cover less work than this run inline: thread
#: dispatch costs ~50us, the work would take less.  The gate reads only
#: the wave's content (a deterministic function of the graph and the
#: work-list), so fan-out can never change results.
FAN_OUT_MIN_HALF_EDGES = 32768

#: full shard scans over fewer vertices than this run inline for the
#: same reason (scan work is proportional to the vertex count).
FAN_OUT_MIN_SCAN_VERTICES = 32768

#: default worker count (workers=0): the machine's cores, capped —
#: frontier waves stop scaling long before large core counts.
MAX_AUTO_WORKERS = 4

# ----------------------------------------------------------------------
# Worker resolution + pool ownership
# ----------------------------------------------------------------------

#: cached REPRO_SHARD_WORKERS value; ``None`` = not yet read.  The
#: environment is consulted exactly once per process (tests reset this
#: sentinel to re-read).
_ENV_WORKERS: Optional[int] = None
_ENV_WORKERS_READ = False


def _env_default_workers() -> Optional[int]:
    global _ENV_WORKERS, _ENV_WORKERS_READ
    if not _ENV_WORKERS_READ:
        raw = os.environ.get("REPRO_SHARD_WORKERS", "").strip()
        _ENV_WORKERS = int(raw) if raw else None
        _ENV_WORKERS_READ = True
    return _ENV_WORKERS


def resolve_workers(workers: int = 0) -> int:
    """Concrete worker count for a ``workers`` knob (0 = auto).

    Auto honors ``REPRO_SHARD_WORKERS`` when set (read once per
    process), else uses the machine's cores capped at
    :data:`MAX_AUTO_WORKERS`.  Worker count is purely a throughput
    knob — results are identical for every value.
    """
    if workers < 0:
        raise GraphError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        env = _env_default_workers()
        if env is not None and env > 0:
            return env
        return max(1, min(MAX_AUTO_WORKERS, os.cpu_count() or 1))
    return workers


_POOLS: Dict[int, ThreadPoolExecutor] = {}
_DISPATCHES = 0


def _pool_for(workers: int) -> ThreadPoolExecutor:
    """A shared thread pool per worker count.

    Pools are reused across waves and engines — spawning threads per
    wave would cost more than small waves themselves.  Idle pools hold
    no GIL and nearly no memory; :func:`shutdown` (atexit-registered)
    tears them down.
    """
    pool = _POOLS.get(workers)
    if pool is None:
        pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-wave"
        )
        _POOLS[workers] = pool
    return pool


def shutdown(wait: bool = True) -> None:
    """Shut down every worker pool the engine owns.

    Safe to call repeatedly; pools recreate lazily on next use.
    Registered with ``atexit`` so interpreter shutdown never leaks
    executor threads; the serve daemon's SIGTERM path calls this too,
    so a killed daemon reclaims everything.
    """
    pools = list(_POOLS.values())
    _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=wait)


atexit.register(shutdown)


def pool_stats() -> Dict[str, int]:
    """Aggregate pool statistics (ints, cache_info-friendly):
    live pool count, their total worker threads, and how many waves
    were dispatched to a pool (vs. run inline) process-wide.

    ``_POOLS`` is keyed by worker count, so the key sum *is* the
    thread total — no reliance on ``ThreadPoolExecutor`` internals
    (an earlier version read the private ``_max_workers`` attribute,
    which an executor implementation change would break).
    """
    return {
        "pools": len(_POOLS),
        "workers": sum(_POOLS.keys()),
        "dispatches": _DISPATCHES,
    }


def _map_on_pool(workers: int, fn, items) -> Optional[list]:
    """Run ``fn`` over ``items`` on the shared pool; ``None`` if the
    pool rejected the work.

    :func:`shutdown` may clear ``_POOLS`` between a wave's
    ``_pool_for`` lookup and its dispatch (atexit, a test's teardown,
    an embedding application shutting the library down mid-run), in
    which case the executor raises ``RuntimeError: cannot schedule new
    futures after shutdown``.  Callers treat ``None`` as "run this
    wave inline" — same results (kernels are deterministic in wave
    content), no crash.  A dead executor still cached in ``_POOLS``
    is evicted so later waves get a fresh pool.
    """
    pool = _pool_for(workers)
    try:
        return list(pool.map(fn, items))
    except RuntimeError:
        if _POOLS.get(workers) is pool:
            del _POOLS[workers]
        return None


def _concat_arrays(parts: List[np.ndarray]) -> np.ndarray:
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class WaveEngine:
    """Executes frontier-synchronous waves over a :class:`ShardPlan`.

    Parameters
    ----------
    plan:
        The shard plan work splits along.  Pure function of the
        snapshot; validated against it by :func:`engine_for`.
    workers:
        Worker threads (0 = auto, see :func:`resolve_workers`).
        Purely a throughput knob — outputs are identical for every
        value, because kernels read frozen state and results
        concatenate in plan order.
    min_gather_work / min_scan_items:
        Fan-out gates: waves below them run inline (dispatch latency
        would exceed the work).  Both read only wave content, so the
        inline/pool decision cannot perturb results; they also double
        as the "small color classes stay serial" knobs of the BFS
        clients.
    """

    __slots__ = (
        "plan",
        "workers",
        "min_gather_work",
        "min_scan_items",
        "dispatches",
    )

    def __init__(
        self,
        plan: ShardPlan,
        workers: int = 0,
        min_gather_work: int = FAN_OUT_MIN_HALF_EDGES,
        min_scan_items: int = FAN_OUT_MIN_SCAN_VERTICES,
    ) -> None:
        self.plan = plan
        self.workers = resolve_workers(workers)
        self.min_gather_work = min_gather_work
        self.min_scan_items = min_scan_items
        #: waves this engine handed to the pool (inline waves excluded)
        self.dispatches = 0

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    # -- fan-out decisions ---------------------------------------------

    def should_fan_out(self, cost: Optional[int], items: int) -> bool:
        """Whether a wave of ``items`` work units covering ``cost``
        half-edges goes to the pool.  Deterministic in wave content."""
        return (
            self.workers > 1
            and items >= self.workers
            and (cost is None or cost >= self.min_gather_work)
        )

    def _note_dispatch(self) -> None:
        global _DISPATCHES
        self.dispatches += 1
        _DISPATCHES += 1

    # -- wave phase primitives -----------------------------------------

    def _index_groups(self, work: np.ndarray) -> List[np.ndarray]:
        """Split an ascending work-list into up to ``workers`` groups of
        whole shards (balanced by work count, boundaries snapped to the
        plan's shard edges).  A shard with no work contributes nothing,
        so inactive regions cost no scheduling."""
        edges = np.concatenate((
            [0],
            np.searchsorted(work, self.plan.boundaries[1:-1], side="left"),
            [work.size],
        ))
        targets = (
            np.arange(1, self.workers, dtype=np.int64) * work.size
        ) // self.workers
        picks = edges[np.searchsorted(edges, targets, side="left")]
        cuts = np.unique(np.concatenate(([0], picks, [work.size])))
        return [work[a:b] for a, b in zip(cuts[:-1], cuts[1:])]

    def gather(
        self,
        kernel: Callable[[np.ndarray], object],
        work: np.ndarray,
        cost: Optional[int] = None,
    ) -> object:
        """Run the shard phase of one wave.

        ``kernel(indices)`` maps an ascending slice of the work-list to
        an array (or a tuple of same-length arrays); the engine splits
        the work into shard-aligned groups, runs them on the pool when
        the gate passes, and concatenates results **in plan order** —
        byte-identical to ``kernel(work)`` run serially.
        """
        if self.should_fan_out(cost, int(work.size)):
            groups = self._index_groups(work)
            if len(groups) > 1:
                parts = _map_on_pool(self.workers, kernel, groups)
                if parts is not None:
                    self._note_dispatch()
                    first = parts[0]
                    if isinstance(first, tuple):
                        return tuple(
                            _concat_arrays([p[i] for p in parts])
                            for i in range(len(first))
                        )
                    return _concat_arrays(parts)
        return kernel(work)

    def wave(
        self,
        work: np.ndarray,
        kernel: Callable[[np.ndarray], object],
        reconcile: Callable[[object], object],
        cost: Optional[int] = None,
    ) -> object:
        """One full wave: shard phase (:meth:`gather`) then a single
        reconcile call on the concatenated results.  The reconcile is
        the only writer of shared state, which is what makes the wave
        deterministic under any worker count."""
        return reconcile(self.gather(kernel, work, cost))

    def scan_shards(
        self, kernel: Callable[[int, int], np.ndarray]
    ) -> np.ndarray:
        """Full-plan scan: ``kernel(lo, hi)`` over every shard's index
        range, concatenated in plan order.  Used by waves that have no
        prepared work-list yet (e.g. the first peeling wave)."""
        bounds = self.plan.boundaries
        shards = range(self.num_shards)

        def run(shard: int) -> np.ndarray:
            return kernel(int(bounds[shard]), int(bounds[shard + 1]))

        parts = None
        if self.workers > 1 and self.plan.num_items >= self.min_scan_items:
            parts = _map_on_pool(self.workers, run, shards)
            if parts is not None:
                self._note_dispatch()
        if parts is None:
            parts = [run(s) for s in shards]
        parts = [p for p in parts if p.size]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return _concat_arrays(parts)

    def map_ranges(
        self,
        fn: Callable[[int, int], object],
        count: int,
        cost: Optional[int] = None,
    ) -> List[object]:
        """Embarrassingly parallel loop helper: split ``range(count)``
        into up to ``workers`` contiguous chunks, run ``fn(lo, hi)`` on
        each, return results in chunk order.  For order-free reductions
        (max eccentricity over BFS sources, reachability flags).

        ``cost`` is the wave-content gate shared with :meth:`gather`
        (estimated total work units): loops below
        ``min_gather_work`` run inline, so tiny clusters never pay
        pool dispatch."""
        if count <= 0:
            return []
        chunks = min(self.workers, count)
        if chunks <= 1 or not self.should_fan_out(cost, count):
            return [fn(0, count)]
        bounds = [(index * count) // chunks for index in range(chunks + 1)]
        pairs = list(zip(bounds[:-1], bounds[1:]))
        parts = _map_on_pool(
            self.workers, lambda pair: fn(pair[0], pair[1]), pairs
        )
        if parts is None:
            return [fn(lo, hi) for lo, hi in pairs]
        self._note_dispatch()
        return parts

    def __repr__(self) -> str:
        return (
            f"WaveEngine(shards={self.num_shards}, workers={self.workers})"
        )


def engine_for(
    snapshot,
    workers: int = 0,
    plan: Optional[ShardPlan] = None,
) -> WaveEngine:
    """A :class:`WaveEngine` over a snapshot's (cached) shard plan.

    An explicitly supplied plan is validated against the snapshot —
    a torn plan (built from a different snapshot) is rejected up
    front rather than producing silently wrong shard slices.
    """
    if plan is None:
        plan = plan_of(snapshot)
    if plan.num_items != snapshot.num_vertices:
        raise GraphError(
            f"shard plan covers {plan.num_items} vertices, "
            f"snapshot has {snapshot.num_vertices}"
        )
    return WaveEngine(plan, workers)


def engine_for_offsets(
    offsets: np.ndarray,
    workers: int = 0,
    num_shards: Optional[int] = None,
) -> WaveEngine:
    """A :class:`WaveEngine` over a bare CSR offset array (sub-CSR
    extractions: per-color classes, induced cluster subgraphs)."""
    plan = ShardPlan.from_offsets(offsets, num_shards)
    return WaveEngine(plan, workers)
