"""What remains of repro.parallel, and the kernel the retired
backend names ran.

Covers the order-free reconcile helper ``resolve_claims``, the
zero-reporting ``pool_stats`` the end-to-end benchmark reads, the
dense-wave scatter dedup folded into ``bfs_distance_array`` (against
the sort-dedup sweep it replaced and the dict BFS), and the csr
traversal entry points that ``backend="parallel"`` ran before that
name was retired.
"""

import numpy as np
import pytest

import repro
from repro.core import Session
from repro.errors import GraphError
from repro.graph import MultiGraph
from repro.graph.csr import _concat_ranges, bfs_distance_array, snapshot_of
from repro.graph.traversal import (
    bfs_distances,
    connected_components,
    diameter_of_component,
    weak_diameter,
)
from repro.parallel import pool_stats

from test_kernel_equivalence import random_multigraph


def _sort_dedup_bfs(offsets, neighbors, n, seeds, radius=None):
    """The pre-fold serial sweep: every wave dedups with np.unique."""
    dist = np.full(n, -1, dtype=np.int64)
    frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    dist[frontier] = 0
    depth = 0
    while frontier.size and (radius is None or depth < radius):
        half = _concat_ranges(offsets[frontier], offsets[frontier + 1])
        targets = np.unique(neighbors[half])
        targets = targets[dist[targets] < 0]
        depth += 1
        dist[targets] = depth
        frontier = targets
    return dist


# ----------------------------------------------------------------------
# Scatter-dedup BFS == sort-dedup sweep == dict BFS
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(0, 80, 5))
def test_parallel_bfs_matches_serial(seed):
    """bfs_distance_array (scatter dedup on dense waves, sort below)
    equals the all-sort sweep for every seed set and radius; corpus
    graphs are small, so most waves take the scatter path."""
    graph = random_multigraph(seed)
    snap = snapshot_of(graph)
    offsets, nbr, n = snap.vertex_offsets, snap.neighbor_ids, snap.num_vertices
    seed_sets = [[0], [n - 1], list(range(0, n, max(1, n // 3)))]
    for seeds in seed_sets:
        for radius in (None, 0, 1, 3):
            assert bfs_distance_array(
                offsets, nbr, n, seeds, radius
            ).tolist() == _sort_dedup_bfs(offsets, nbr, n, seeds, radius).tolist()


def test_parallel_bfs_rejects_bad_seeds():
    graph = MultiGraph.from_edges(4, [(0, 1), (2, 3)])
    snap = snapshot_of(graph)
    for bad in ([-1], [4], [0, 99]):
        with pytest.raises(GraphError):
            bfs_distance_array(
                snap.vertex_offsets, snap.neighbor_ids, snap.num_vertices, bad
            )


def test_parallel_bfs_on_color_class_sub_csr():
    """The color-class shape: a sub-CSR extracted via Session.sub_csr
    sweeps exactly like the dict BFS over the same edge subset."""
    graph = random_multigraph(17)
    session = Session(graph)
    eids = graph.edge_ids()[:: 2]
    if not eids:
        pytest.skip("corpus instance has no edges")
    offsets, nbr, _eids = session.sub_csr(eids)
    n = graph.n
    dist = bfs_distance_array(offsets, nbr, n, [0])
    snap = snapshot_of(graph)
    reached = {
        int(snap.vertex_ids[i]): int(dist[i]) for i in np.flatnonzero(dist >= 0)
    }
    sub = graph.edge_subgraph(eids)
    start = int(snap.vertex_ids[0])
    expected = (
        bfs_distances(sub, [start], backend="dict")
        if sub.has_vertex(start) else {start: 0}
    )
    assert reached == expected


# ----------------------------------------------------------------------
# The traversal kernel the retired "parallel" name ran
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(2, 60, 7))
def test_traversal_parallel_backend_matches_csr(seed):
    graph = random_multigraph(seed)
    vertices = graph.vertices()
    sources = vertices[:2]
    assert bfs_distances(graph, sources, backend="csr") == \
        bfs_distances(graph, sources, backend="dict")
    components = connected_components(graph, backend="dict")
    for comp in components[:3]:
        assert diameter_of_component(graph, comp, backend="csr") == \
            diameter_of_component(graph, comp, backend="dict")
        assert weak_diameter(graph, comp, backend="csr") == \
            weak_diameter(graph, comp, backend="dict")


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
# pool_stats: the benchmark's parallel.* metrics
# ----------------------------------------------------------------------


def test_pool_stats_independent_of_executor_internals():
    """The library owns no worker pools: pool_stats reports zeros, and
    running a decomposition does not change that."""
    zeros = {"pools": 0, "workers": 0, "dispatches": 0}
    assert pool_stats() == zeros
    repro.decompose(random_multigraph(5), task="forest")
    assert pool_stats() == zeros
