"""Sharded multi-worker peeling over the CSR kernel.

The H-partition (Algorithm 1 / Theorem 2.1) is wave-parallel by
construction: every vertex whose remaining degree is at or below the
threshold peels *simultaneously*.  The serial kernel executes each wave
as one vectorized pass on a single core;
:class:`ShardedPeelingView` runs each wave through the shared
:class:`~repro.parallel.engine.WaveEngine` — the runtime this module
*used* to own before PR 5 lifted it into :mod:`repro.parallel` so the
BFS-shaped hot paths (ball carving, color-class scans, diameter
sweeps) could share it.

What remains here is the peeling-specific wave:

* **shard phase** — the engine fans the wave's work-list out along
  :class:`~repro.parallel.plan.ShardPlan` boundaries; per-shard
  kernels peel/gather against *frozen* ``alive`` / ``remaining``
  arrays (they read pre-wave state, never write shared degree state),
  and results concatenate in ascending dense-index order no matter
  which worker finished first.
* **reconcile phase** — one batched
  :func:`~repro.graph.csr.apply_degree_decrements` update (the
  ``np.bincount``-based helper shared with the serial wave) applies
  every decrement at once, and the vertices whose remaining degree
  crossed the threshold become the next wave's work-list.

Because workers only read frozen state and the reconcile is a single
deterministic batched update, the output is **bit-identical to the
serial ``csr`` backend for every worker count** — the equivalence
suite asserts dict == csr == sharded for workers in {1, 2, 4}.

The threshold-crossing bookkeeping is also why the backend is faster
on one core: a shard none of whose vertices were decremented below the
threshold cannot produce removals and contributes nothing to the
work-list, so steady-state waves touch only the active frontier
instead of rescanning all ``n`` vertices.  On wave-cascade workloads
(grid peels, long dependency chains) that turns ``O(waves * n)``
scanning into ``O(n + total frontier)``.

Workers are threads, pools are process-shared, and the fan-out gates
read only wave content — see :mod:`repro.parallel.engine` for the full
justification and the pool lifecycle (a single ``REPRO_SHARD_WORKERS``
read, explicit ``shutdown()``, atexit teardown).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..parallel.engine import engine_for, resolve_workers
from ..parallel.plan import ShardPlan, plan_of
from .csr import (
    CSRGraph,
    PeelingView,
    SHARDED_AUTO_CUTOFF,
    _concat_ranges,
    apply_degree_decrements,
)

__all__ = [
    "ShardPlan",
    "ShardedPeelingView",
    "SHARDED_AUTO_CUTOFF",
    "plan_of",
    "resolve_workers",
]


class ShardedPeelingView(PeelingView):
    """A :class:`PeelingView` whose ``peel_leq`` waves run on the
    shared :class:`~repro.parallel.engine.WaveEngine`.

    State layout is identical to the serial view (the ``alive`` /
    ``remaining`` arrays *are* the superclass's), plus the wave
    bookkeeping: ``_cand`` holds the exact removal set of the next
    wave at the current threshold — maintained by the reconcile step,
    which knows precisely which vertices crossed the threshold.

    Invariant (the reason sharded == serial, proved wave by wave):
    after any ``peel_leq(t)`` wave, a live vertex has remaining degree
    <= t iff it was decremented below t by that wave's reconcile —
    otherwise it would have been removed by the wave itself.  So the
    reconcile's threshold-crossing set *is* the serial wave's
    ``flatnonzero(alive & (remaining <= t))``, shard-sliced.

    ``pop_min`` (degeneracy delete-min) and threshold changes fall
    back to the superclass machinery / a full shard scan; the view
    stays correct under arbitrary interleaving, like the serial one.
    """

    __slots__ = ("engine", "_cand", "_cand_threshold")

    def __init__(
        self,
        snapshot: CSRGraph,
        plan: Optional[ShardPlan] = None,
        workers: int = 0,
    ) -> None:
        super().__init__(snapshot)
        # engine_for validates the plan against the snapshot (torn
        # plans — built from a different snapshot — are rejected).
        self.engine = engine_for(snapshot, workers, plan)
        self._cand: Optional[np.ndarray] = None
        self._cand_threshold: Optional[int] = None

    @property
    def plan(self) -> ShardPlan:
        return self.engine.plan

    @property
    def workers(self) -> int:
        return self.engine.workers

    # -- wave phase 1: per-shard work ----------------------------------

    def _scan_shards(self, threshold: int) -> np.ndarray:
        """Full shard-wise scan: the first wave (and any wave after a
        threshold change or a scalar-mode interlude), where no
        reconcile has prepared a work-list yet."""
        alive = self._alive_arr
        remaining = self._remaining_arr

        def scan(lo: int, hi: int) -> np.ndarray:
            local = np.flatnonzero(
                alive[lo:hi] & (remaining[lo:hi] <= threshold)
            )
            if local.size and lo:
                local += lo
            return local

        return self.engine.scan_shards(scan)

    def _gather_cut_neighbors(self, removed: np.ndarray) -> np.ndarray:
        """Live neighbors (with multiplicity) across the removed
        vertices' half-edges — the decrements this wave must apply.

        ``alive`` is frozen during the gather (removals were flagged
        before the call), so workers read identical state no matter
        the interleaving; the engine splits the work along shard
        boundaries and concatenates group results in plan order,
        reproducing the serial gather exactly.
        """
        offsets = self.snapshot.vertex_offsets
        total_half = int(
            (offsets[removed + 1] - offsets[removed]).sum()
        ) if removed.size else 0
        neighbor_ids = self.snapshot.neighbor_ids
        alive = self._alive_arr

        def gather(part: np.ndarray) -> np.ndarray:
            half = _concat_ranges(offsets[part], offsets[part + 1])
            nbrs = neighbor_ids[half]
            return nbrs[alive[nbrs]]

        return self.engine.gather(gather, removed, total_half)

    # -- the wave ------------------------------------------------------

    def peel_leq(self, threshold: int) -> np.ndarray:
        """One engine wave; see :meth:`PeelingView.peel_leq`.

        Returns the removed dense indices (ascending), bit-identical
        to the serial view's wave for any plan and worker count.
        """
        if self._alive_arr is None:
            # Scalar mode (after pop_min): the frozen-array wave
            # machinery no longer applies; delegate and invalidate.
            self._cand = None
            self._cand_threshold = None
            return self._peel_leq_scalar(threshold)

        if self._cand is not None and self._cand_threshold == threshold:
            removed = self._cand
        else:
            removed = self._scan_shards(threshold)
        self._cand = None
        self._cand_threshold = None
        if removed.size == 0:
            return removed

        alive = self._alive_arr
        remaining = self._remaining_arr
        alive[removed] = False
        self.alive_count -= int(removed.size)

        neighbors = self._gather_cut_neighbors(removed)

        # Reconcile: one batched bincount-based update, shared with the
        # serial wave, then keep exactly the vertices that crossed the
        # threshold as the next wave's work-list.
        touched = apply_degree_decrements(
            remaining, neighbors, self.snapshot.num_vertices,
            want_touched=True,
        )
        self._cand = touched[remaining[touched] <= threshold]
        self._cand_threshold = threshold
        return removed

    def pop_min(self):
        """Delete-min delegates to the serial scalar machinery; any
        prepared wave work-list is invalidated by the removal."""
        self._cand = None
        self._cand_threshold = None
        return super().pop_min()
