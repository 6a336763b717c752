"""repro.parallel — the shared parallel wave engine.

One runtime for every frontier-synchronous hot path: sharded degree
peeling (:mod:`repro.graph.shard` is a thin client), multi-seed BFS,
ball carving, per-color-class scans.  See :mod:`repro.parallel.engine`
for the wave/reconcile contract and the determinism story, and
``docs/api.md`` ("The parallel wave engine") for the user-facing tour.
"""

from .engine import (
    FAN_OUT_MIN_HALF_EDGES,
    FAN_OUT_MIN_SCAN_VERTICES,
    MAX_AUTO_WORKERS,
    WaveEngine,
    engine_for,
    engine_for_offsets,
    pool_stats,
    resolve_workers,
    shutdown,
)
from .plan import (
    MAX_SHARDS,
    SHARD_TARGET_HALF_EDGES,
    SHARD_TARGET_VERTICES,
    ShardPlan,
    default_num_shards,
    plan_of,
)
from .bfs import (
    DENSE_WAVE_DIVISOR,
    frontier_candidates,
    induced_eccentricity_sweep,
    parallel_bfs_distance_array,
    resolve_claims,
    segment_kth_largest,
)

__all__ = [
    "WaveEngine",
    "ShardPlan",
    "engine_for",
    "engine_for_offsets",
    "plan_of",
    "default_num_shards",
    "resolve_workers",
    "shutdown",
    "pool_stats",
    "parallel_bfs_distance_array",
    "frontier_candidates",
    "induced_eccentricity_sweep",
    "resolve_claims",
    "segment_kth_largest",
    "DENSE_WAVE_DIVISOR",
    "FAN_OUT_MIN_HALF_EDGES",
    "FAN_OUT_MIN_SCAN_VERTICES",
    "MAX_AUTO_WORKERS",
    "MAX_SHARDS",
    "SHARD_TARGET_HALF_EDGES",
    "SHARD_TARGET_VERTICES",
]
