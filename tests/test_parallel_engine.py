"""The shared parallel wave engine (repro.parallel).

Covers the engine's own contract — kernel/reconcile determinism across
workers x shard counts, plan validation (torn plans rejected), pool
lifecycle (single REPRO_SHARD_WORKERS read, explicit shutdown, stats
surfaced through Session.cache_info) — plus the engine-backed BFS
paths: parallel_bfs_distance_array vs. the serial csr sweep, traversal
entry points under backend="parallel", and the registry-level
"parallel" backend.
"""

import numpy as np
import pytest

import repro
from repro.core import DecompositionConfig, Session
from repro.errors import GraphError
from repro.graph import MultiGraph
from repro.graph.csr import bfs_distance_array, snapshot_of
from repro.graph.traversal import (
    bfs_distances,
    connected_components,
    diameter_of_component,
    weak_diameter,
)
from repro.parallel import (
    ShardPlan,
    WaveEngine,
    engine_for,
    engine_for_offsets,
    parallel_bfs_distance_array,
    plan_of,
    pool_stats,
    resolve_workers,
    shutdown,
)
from repro.parallel import engine as engine_module

from test_kernel_equivalence import random_multigraph

WORKER_COUNTS = (1, 2, 4)
SHARD_COUNTS = (1, 3, 7)


def _eager_engine(plan, workers):
    """An engine whose gates are fully open, so even tiny test waves
    exercise the pool dispatch path."""
    return WaveEngine(plan, workers, min_gather_work=0, min_scan_items=0)


# ----------------------------------------------------------------------
# Engine-level determinism (generic kernel + reconcile)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(0, 60, 7))
def test_engine_gather_deterministic_across_workers_and_shards(seed):
    """gather/wave results are byte-identical for every worker count
    and shard granularity: the per-shard kernel reads frozen state,
    groups concatenate in plan order."""
    graph = random_multigraph(seed)
    snap = snapshot_of(graph)
    offsets = snap.vertex_offsets
    neighbors = snap.neighbor_ids
    work = np.arange(snap.num_vertices, dtype=np.int64)

    def kernel(part):
        half_start = offsets[part]
        half_stop = offsets[part + 1]
        out = []
        for lo, hi in zip(half_start.tolist(), half_stop.tolist()):
            out.extend(neighbors[lo:hi].tolist())
        return np.asarray(out, dtype=np.int64)

    reference = kernel(work)
    for workers in WORKER_COUNTS:
        for num_shards in SHARD_COUNTS:
            engine = _eager_engine(plan_of(snap, num_shards), workers)
            result = engine.gather(kernel, work, cost=int(reference.size))
            assert result.tolist() == reference.tolist()
            # wave() = gather + one reconcile call on the concatenation
            total = engine.wave(
                work, kernel, lambda arr: int(arr.sum()),
                cost=int(reference.size),
            )
            assert total == int(reference.sum())


@pytest.mark.parametrize("seed", range(1, 40, 9))
def test_engine_scan_and_tuple_gather(seed):
    graph = random_multigraph(seed)
    snap = snapshot_of(graph)
    degrees = snap.degrees()
    work = np.arange(snap.num_vertices, dtype=np.int64)

    def scan(lo, hi):
        local = np.flatnonzero(degrees[lo:hi] % 2 == 0)
        if local.size and lo:
            local += lo
        return local

    def pair_kernel(part):
        return part, degrees[part]

    reference_scan = scan(0, snap.num_vertices)
    ref_idx, ref_deg = pair_kernel(work)
    for workers in WORKER_COUNTS:
        for num_shards in SHARD_COUNTS:
            engine = _eager_engine(plan_of(snap, num_shards), workers)
            assert engine.scan_shards(scan).tolist() == reference_scan.tolist()
            idx, deg = engine.gather(pair_kernel, work, cost=int(work.size))
            assert idx.tolist() == ref_idx.tolist()
            assert deg.tolist() == ref_deg.tolist()


def test_engine_map_ranges_covers_every_index():
    plan = ShardPlan(np.array([0, 5, 11], dtype=np.int64))
    for workers in WORKER_COUNTS:
        engine = WaveEngine(plan, workers)
        chunks = engine.map_ranges(lambda lo, hi: list(range(lo, hi)), 11)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(11))
    assert WaveEngine(plan, 2).map_ranges(lambda lo, hi: (lo, hi), 0) == []


def test_engine_torn_plan_rejected():
    """A plan built from a different snapshot must be refused up front
    (mirrors the PR-4 ShardedPeelingView plan-mismatch check)."""
    small = snapshot_of(MultiGraph.with_vertices(3))
    large = snapshot_of(MultiGraph.with_vertices(9))
    with pytest.raises(GraphError):
        engine_for(large, plan=plan_of(small))
    with pytest.raises(GraphError):
        engine_for(small, plan=plan_of(large))
    # A matching explicit plan is fine.
    engine = engine_for(large, workers=2, plan=plan_of(large, 3))
    assert engine.num_shards == 3


def test_shard_plan_from_offsets_matches_snapshot_plan():
    graph = random_multigraph(12)
    snap = snapshot_of(graph)
    by_snapshot = ShardPlan.from_snapshot(snap, 4)
    by_offsets = ShardPlan.from_offsets(snap.vertex_offsets, 4)
    assert by_offsets.boundaries.tolist() == by_snapshot.boundaries.tolist()
    assert by_offsets.num_items == snap.num_vertices


# ----------------------------------------------------------------------
# Pool ownership: single env read, shutdown, stats
# ----------------------------------------------------------------------


@pytest.fixture
def fresh_env_workers():
    """Reset the cached REPRO_SHARD_WORKERS read around a test."""
    saved = (engine_module._ENV_WORKERS, engine_module._ENV_WORKERS_READ)
    engine_module._ENV_WORKERS = None
    engine_module._ENV_WORKERS_READ = False
    yield
    engine_module._ENV_WORKERS, engine_module._ENV_WORKERS_READ = saved


def test_resolve_workers_reads_env_once(monkeypatch, fresh_env_workers):
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "3")
    assert resolve_workers(0) == 3
    # The environment is consulted exactly once per process: a later
    # change must not alter the resolution (PR 4 re-read it per call).
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "7")
    assert resolve_workers(0) == 3
    # Explicit worker counts bypass the env entirely.
    assert resolve_workers(5) == 5
    with pytest.raises(GraphError):
        resolve_workers(-1)


def test_pool_shutdown_and_stats():
    shutdown()
    assert pool_stats()["pools"] == 0
    plan = ShardPlan(np.array([0, 4, 8], dtype=np.int64))
    engine = _eager_engine(plan, 2)
    work = np.arange(8, dtype=np.int64)
    before = pool_stats()["dispatches"]
    result = engine.gather(lambda part: part * 2, work, cost=8)
    assert result.tolist() == (work * 2).tolist()
    stats = pool_stats()
    assert stats["pools"] == 1
    assert stats["workers"] == 2
    assert stats["dispatches"] == before + 1
    assert engine.dispatches == 1
    shutdown()
    assert pool_stats()["pools"] == 0
    # Pools recreate lazily after shutdown.
    again = engine.gather(lambda part: part + 1, work, cost=8)
    assert again.tolist() == (work + 1).tolist()
    shutdown()


def test_session_cache_info_surfaces_pool_stats():
    graph = MultiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    info = Session(graph).cache_info()
    pools = info["worker_pools"]
    assert set(pools) == {"pools", "workers", "dispatches"}
    assert all(isinstance(value, int) for value in pools.values())


def test_session_wave_engine_uses_cached_plan():
    graph = MultiGraph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    session = Session(graph, DecompositionConfig(workers=2))
    engine = session.wave_engine()
    assert engine.workers == 2
    assert engine.plan is session.shard_plan()
    assert session.wave_engine(workers=3).workers == 3


# ----------------------------------------------------------------------
# Engine-backed BFS == serial csr sweep
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(0, 80, 5))
def test_parallel_bfs_matches_serial(seed):
    graph = random_multigraph(seed)
    snap = snapshot_of(graph)
    offsets, nbr, n = snap.vertex_offsets, snap.neighbor_ids, snap.num_vertices
    seed_sets = [[0], [n - 1], list(range(0, n, max(1, n // 3)))]
    for seeds in seed_sets:
        for radius in (None, 0, 1, 3):
            reference = bfs_distance_array(offsets, nbr, n, seeds, radius)
            assert parallel_bfs_distance_array(
                offsets, nbr, n, seeds, radius
            ).tolist() == reference.tolist()
            for workers in WORKER_COUNTS:
                for num_shards in SHARD_COUNTS:
                    engine = _eager_engine(plan_of(snap, num_shards), workers)
                    dist = parallel_bfs_distance_array(
                        offsets, nbr, n, seeds, radius, engine
                    )
                    assert dist.tolist() == reference.tolist()


def test_parallel_bfs_rejects_bad_seeds():
    graph = MultiGraph.from_edges(4, [(0, 1), (2, 3)])
    snap = snapshot_of(graph)
    for bad in ([-1], [4], [0, 99]):
        with pytest.raises(GraphError):
            parallel_bfs_distance_array(
                snap.vertex_offsets, snap.neighbor_ids, snap.num_vertices, bad
            )


def test_parallel_bfs_on_color_class_sub_csr():
    """The color-class shape: a sub-CSR extracted via Session.sub_csr
    sweeps identically on the serial and engine paths."""
    graph = random_multigraph(17)
    session = Session(graph)
    eids = graph.edge_ids()[:: 2]
    if not eids:
        pytest.skip("corpus instance has no edges")
    offsets, nbr, _eids = session.sub_csr(eids)
    n = graph.n
    reference = bfs_distance_array(offsets, nbr, n, [0])
    for workers in WORKER_COUNTS:
        engine = engine_for_offsets(offsets, workers)
        engine.min_gather_work = 0
        assert parallel_bfs_distance_array(
            offsets, nbr, n, [0], engine=engine
        ).tolist() == reference.tolist()


# ----------------------------------------------------------------------
# Traversal entry points under the parallel backend
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(2, 60, 7))
def test_traversal_parallel_backend_matches_csr(seed, monkeypatch):
    # Below the size cutoff backend="parallel" resolves to csr; force
    # the engine path so these corpus graphs actually exercise it.
    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
    graph = random_multigraph(seed)
    vertices = graph.vertices()
    sources = vertices[:2]
    # The forced env also reroutes csr-resolved calls, so compare the
    # engine path against the dict reference (the stronger check).
    assert bfs_distances(graph, sources, backend="parallel") == \
        bfs_distances(graph, sources, backend="dict")
    components = connected_components(graph, backend="dict")
    for comp in components[:3]:
        assert diameter_of_component(graph, comp, backend="parallel") == \
            diameter_of_component(graph, comp, backend="dict")
        assert weak_diameter(graph, comp, backend="parallel") == \
            weak_diameter(graph, comp, backend="dict")


def test_force_env_flags(monkeypatch):
    """REPRO_FORCE_PARALLEL is the one force flag: it forces both the
    sharded peel and the BFS paths, and unset forces neither."""
    from repro.graph.csr import force_parallel_traversal, force_sharded_peeling

    monkeypatch.delenv("REPRO_FORCE_PARALLEL", raising=False)
    assert not force_sharded_peeling()
    assert not force_parallel_traversal()
    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
    assert force_sharded_peeling()
    assert force_parallel_traversal()


def test_force_sharded_alone_reroutes_peel(monkeypatch):
    """REPRO_FORCE_PARALLEL alone (no backend name) forces the sharded
    peel: a plain csr h_partition runs on the sharded view and still
    matches the dict reference."""
    import repro.graph.shard as shard_module
    from repro.decomposition.hpartition import h_partition

    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
    builds = []
    original_init = shard_module.ShardedPeelingView.__init__

    def recording_init(self, *args, **kwargs):
        builds.append(1)
        return original_init(self, *args, **kwargs)

    monkeypatch.setattr(
        shard_module.ShardedPeelingView, "__init__", recording_init
    )
    graph = MultiGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    reference = h_partition(graph, 2, backend="dict")
    forced = h_partition(graph, 2, backend="csr")
    assert forced.classes == reference.classes
    assert builds, "REPRO_FORCE_PARALLEL=1 did not reroute the csr peel"


def test_parallel_backend_registry_resolution(monkeypatch):
    import repro.core.session as session_module
    from repro.core.registry import get_backend
    from repro.graph.csr import SHARDED_AUTO_CUTOFF

    class _FakeBig:
        n = SHARDED_AUTO_CUTOFF

    class _FakeSmall:
        n = 10

    # "mp" (the retired process backend's name) resolves like
    # "parallel" on both sides of the size cutoff.
    graph = MultiGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    for name in ("parallel", "mp"):
        spec = get_backend(name)
        assert spec.substrate_for(_FakeBig()) == "parallel"
        assert spec.substrate_for(_FakeSmall()) == "csr"
        config = DecompositionConfig(backend=name)
        assert Session(graph).substrate(config) == "csr"
        with monkeypatch.context() as patch:
            patch.setattr(session_module, "SHARDED_AUTO_CUTOFF", 1)
            assert Session(graph).substrate(config) == "parallel"


def test_parallel_backend_registered(monkeypatch):
    from repro.errors import RegistryError

    assert {"parallel", "mp"} <= set(repro.available_backends())
    graph = random_multigraph(3)
    with pytest.raises(RegistryError):
        repro.decompose(
            graph, task="forest",
            config=DecompositionConfig(backend="processes"),
        )
    reference = repro.decompose(
        graph, task="forest", config=DecompositionConfig(seed=7, backend="csr")
    )
    # Forced on, so the engine paths run at this size.
    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
    for backend in ("parallel", "mp"):
        result = repro.decompose(
            graph, task="forest",
            config=DecompositionConfig(seed=7, backend=backend, workers=2),
        )
        assert result.coloring == reference.coloring
        assert result.rounds.total == reference.rounds.total


# ----------------------------------------------------------------------
# resolve_claims (the simultaneous carve's reconcile helper)
# ----------------------------------------------------------------------


def test_resolve_claims_min_per_target():
    from repro.parallel import resolve_claims

    targets = np.array([5, 1, 5, 2, 1, 5], dtype=np.int64)
    priorities = np.array([7, 3, 2, 9, 4, 11], dtype=np.int64)
    won_targets, won_priorities = resolve_claims(targets, priorities, 16)
    assert won_targets.tolist() == [1, 2, 5]
    assert won_priorities.tolist() == [3, 9, 2]
    # Input order is irrelevant (shard concatenation order must not
    # matter).
    perm = np.array([3, 0, 5, 2, 4, 1])
    again = resolve_claims(targets[perm], priorities[perm], 16)
    assert again[0].tolist() == [1, 2, 5]
    assert again[1].tolist() == [3, 9, 2]


def test_resolve_claims_empty():
    from repro.parallel import resolve_claims

    empty = np.empty(0, dtype=np.int64)
    won_targets, won_priorities = resolve_claims(empty, empty, 10)
    assert won_targets.size == 0 and won_priorities.size == 0


@pytest.mark.parametrize("seed", range(6))
def test_resolve_claims_packed_matches_lexsort(seed):
    """The packed-key fast path and the lexsort fallback (forced by an
    overflowing limit) agree on random claim sets."""
    from repro.parallel import resolve_claims

    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 200))
    limit = int(rng.integers(2, 50))
    targets = rng.integers(0, 40, size=size).astype(np.int64)
    priorities = rng.integers(0, limit, size=size).astype(np.int64)
    packed = resolve_claims(targets, priorities, limit)
    fallback = resolve_claims(targets, priorities, 1 << 62)
    assert packed[0].tolist() == fallback[0].tolist()
    assert packed[1].tolist() == fallback[1].tolist()
    # Reference: python min per target.
    best = {}
    for t, p in zip(targets.tolist(), priorities.tolist()):
        best[t] = min(best.get(t, p), p)
    assert dict(zip(packed[0].tolist(), packed[1].tolist())) == best


# ----------------------------------------------------------------------
# Simultaneous carve: engine path == serial path, every fan-out shape
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(0, 60, 7))
def test_simultaneous_carve_engine_matches_serial(seed):
    from repro.decomposition.network_decomposition import (
        _decompose_simultaneous_csr,
    )

    graph = random_multigraph(seed)
    snap = snapshot_of(graph)
    n = snap.num_vertices
    serial = _decompose_simultaneous_csr(snap, n, None)
    for workers in WORKER_COUNTS:
        for num_shards in SHARD_COUNTS:
            engine = _eager_engine(plan_of(snap, num_shards), workers)
            assert _decompose_simultaneous_csr(snap, n, engine) == serial


# ----------------------------------------------------------------------
# Pool lifecycle regressions
# ----------------------------------------------------------------------


def test_pool_stats_independent_of_executor_internals():
    """pool_stats derives worker totals from the registry keys, so an
    executor implementation change (it used to read the private
    ``_max_workers`` attribute) cannot break it."""
    shutdown()
    plan = ShardPlan(np.array([0, 4, 8], dtype=np.int64))
    engine = _eager_engine(plan, 3)
    engine.gather(lambda part: part * 3, np.arange(8, dtype=np.int64), cost=8)
    pool = engine_module._POOLS[3]
    saved = pool.__dict__.pop("_max_workers")
    try:
        stats = pool_stats()
        assert stats["pools"] == 1
        assert stats["workers"] == 3
    finally:
        pool.__dict__["_max_workers"] = saved
        shutdown()


def test_engine_falls_back_inline_when_pool_shut_down():
    """shutdown() racing a wave (atexit, test teardown, an embedding
    application) must not crash the wave: a dead executor means the
    wave runs inline with identical results, and the dead pool is
    evicted so the next wave gets a fresh one."""
    shutdown()
    plan = ShardPlan(np.array([0, 4, 8], dtype=np.int64))
    engine = _eager_engine(plan, 2)
    work = np.arange(8, dtype=np.int64)

    def dead_pool():
        # Prime the registry, then shut the executor down *without*
        # removing it — exactly the state the race leaves behind.
        pool = engine_module._pool_for(2)
        pool.shutdown(wait=True)
        return pool

    dead = dead_pool()
    result = engine.gather(lambda part: part * 2, work, cost=8)
    assert result.tolist() == (work * 2).tolist()
    assert engine_module._POOLS.get(2) is not dead

    dead = dead_pool()
    scanned = engine.scan_shards(
        lambda lo, hi: np.arange(lo, hi, dtype=np.int64)
    )
    assert scanned.tolist() == list(range(8))
    assert engine_module._POOLS.get(2) is not dead

    dead = dead_pool()
    ranges = engine.map_ranges(lambda lo, hi: hi - lo, 8, cost=8)
    assert sum(ranges) == 8
    assert engine_module._POOLS.get(2) is not dead

    # A live pool is back in service afterwards.
    before = pool_stats()["dispatches"]
    engine.gather(lambda part: part + 1, work, cost=8)
    assert pool_stats()["dispatches"] == before + 1
    shutdown()
