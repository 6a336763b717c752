"""What remains of repro.parallel, and the kernel the retired
backend names ran.

Covers the zero-reporting ``pool_stats`` the end-to-end benchmark
reads, the dense-wave scatter dedup folded into ``bfs_distance_array``
(against the sort-dedup sweep it replaced and the reference BFS), and
the traversal entry points that ``backend="parallel"`` ran before that
name was retired, against the reference package.
"""

import numpy as np
import pytest

import repro
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

from reference import traversal as ref_traversal
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
    """The color-class shape: a sub-CSR extracted from the snapshot
    sweeps exactly like the reference BFS over the same edge subset."""
    graph = random_multigraph(17)
    eids = graph.edge_ids()[:: 2]
    if not eids:
        pytest.skip("corpus instance has no edges")
    snap = snapshot_of(graph)
    color_class = snap.edge_subgraph(np.asarray(sorted(eids), dtype=np.int64))
    offsets, nbr = color_class.vertex_offsets, color_class.neighbor_ids
    n = graph.n
    dist = bfs_distance_array(offsets, nbr, n, [0])
    reached = {
        int(snap.vertex_ids[i]): int(dist[i]) for i in np.flatnonzero(dist >= 0)
    }
    sub = graph.edge_subgraph(eids)
    start = int(snap.vertex_ids[0])
    expected = (
        ref_traversal.bfs_distances(sub, [start])
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
    assert bfs_distances(graph, sources) == \
        ref_traversal.bfs_distances(graph, sources)
    components = ref_traversal.connected_components(graph)
    assert connected_components(graph) == components
    for comp in components[:3]:
        assert diameter_of_component(graph, comp) == \
            ref_traversal.diameter_of_component(graph, comp)
        assert weak_diameter(graph, comp) == \
            ref_traversal.weak_diameter(graph, comp)


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
