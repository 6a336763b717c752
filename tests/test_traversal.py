"""Tests for BFS / neighborhood / power-graph utilities."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    MultiGraph,
    bfs_distances,
    connected_components,
    diameter_of_component,
    distance_between_sets,
    edge_neighborhood,
    edges_within,
    neighborhood,
    power_graph,
    shortest_path,
    weak_diameter,
)
from repro.graph.generators import cycle_graph, grid_graph, path_graph
from repro.graph.traversal import (
    components_of_vertices,
    eccentricity,
    spanning_tree_edges,
)


def test_bfs_distances_path():
    g = path_graph(5)
    dist = bfs_distances(g, [0])
    assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}


def test_bfs_distances_radius_cap():
    g = path_graph(5)
    dist = bfs_distances(g, [0], radius=2)
    assert dist == {0: 0, 1: 1, 2: 2}


def test_bfs_multi_source():
    g = path_graph(5)
    dist = bfs_distances(g, [0, 4])
    assert dist[2] == 2
    assert dist[1] == 1
    assert dist[3] == 1


def test_bfs_unknown_source():
    g = path_graph(3)
    with pytest.raises(GraphError):
        bfs_distances(g, [99])


def test_neighborhood():
    g = path_graph(7)
    assert neighborhood(g, [3], 1) == {2, 3, 4}
    assert neighborhood(g, [3], 0) == {3}


def test_edge_neighborhood():
    g = path_graph(7)
    eid = g.edges_between(3, 4)[0]
    assert edge_neighborhood(g, eid, 1) == {2, 3, 4, 5}


def test_edges_within():
    g = path_graph(5)
    inside = edges_within(g, {1, 2, 3})
    assert len(inside) == 2


def test_power_graph_path():
    g = path_graph(5)
    p2 = power_graph(g, 2)
    assert p2.multiplicity(0, 2) == 1
    assert p2.multiplicity(0, 3) == 0
    assert p2.is_simple()


def test_power_graph_collapses_parallels():
    g = MultiGraph.from_edges(2, [(0, 1), (0, 1)])
    p1 = power_graph(g, 1)
    assert p1.m == 1


def test_power_graph_bad_radius():
    with pytest.raises(GraphError):
        power_graph(path_graph(3), 0)


def test_connected_components():
    g = MultiGraph.with_vertices(5)
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    comps = connected_components(g)
    assert sorted(map(tuple, comps)) == [(0, 1), (2, 3), (4,)]


def test_components_of_vertices():
    g = path_graph(6)
    comps = components_of_vertices(g, [0, 1, 3, 4])
    assert sorted(map(tuple, comps)) == [(0, 1), (3, 4)]


def test_shortest_path():
    g = cycle_graph(6)
    path = shortest_path(g, 0, 3)
    assert path is not None
    assert path[0] == 0 and path[-1] == 3
    assert len(path) == 4


def test_shortest_path_disconnected():
    g = MultiGraph.with_vertices(3)
    g.add_edge(0, 1)
    assert shortest_path(g, 0, 2) is None
    assert shortest_path(g, 2, 2) == [2]


def test_eccentricity_and_diameter():
    g = path_graph(5)
    assert eccentricity(g, 0) == 4
    assert eccentricity(g, 2) == 2
    assert diameter_of_component(g, [0, 1, 2, 3, 4]) == 4


def test_diameter_disconnected_raises():
    g = MultiGraph.with_vertices(3)
    g.add_edge(0, 1)
    with pytest.raises(GraphError):
        diameter_of_component(g, [0, 1, 2])


def test_weak_diameter():
    # Cluster {0, 4} on a cycle of 8: distance through graph is 4.
    g = cycle_graph(8)
    assert weak_diameter(g, [0, 4]) == 4


def test_distance_between_sets():
    g = path_graph(10)
    assert distance_between_sets(g, [0, 1], [5]) == 4
    g2 = MultiGraph.with_vertices(4)
    g2.add_edge(0, 1)
    assert distance_between_sets(g2, [0], [3]) is None


def test_grid_diameter():
    g = grid_graph(3, 4)
    assert diameter_of_component(g, g.vertices()) == (3 - 1) + (4 - 1)


def test_csr_backend_small_graphs():
    """The kernel path honours the same contracts on toy inputs."""
    from repro.graph import CSRGraph

    g = path_graph(5)
    assert bfs_distances(g, [0], backend="csr") == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
    assert bfs_distances(g, [0], radius=2, backend="csr") == {0: 0, 1: 1, 2: 2}
    assert neighborhood(g, [3], 0, backend="csr") == {3}
    with pytest.raises(GraphError):
        bfs_distances(g, [99], backend="csr")

    p2 = power_graph(g, 2, backend="csr")
    assert isinstance(p2, CSRGraph)
    assert sorted(p2.neighbors(0)) == [1, 2]
    assert p2.m == power_graph(g, 2, backend="dict").m
    with pytest.raises(GraphError):
        power_graph(g, 0, backend="csr")

    assert diameter_of_component(g, g.vertices(), backend="csr") == 4
    broken = MultiGraph.with_vertices(3)
    broken.add_edge(0, 1)
    with pytest.raises(GraphError):
        diameter_of_component(broken, [0, 1, 2], backend="csr")
    assert connected_components(broken, backend="csr") == [[0, 1], [2]]


def test_spanning_tree_edges():
    g = cycle_graph(5)
    tree = spanning_tree_edges(g, g.vertices())
    assert len(tree) == 4
    # A spanning forest of a connected graph has n-1 edges and no cycle.
    from repro.graph import is_forest

    assert is_forest(g, tree)


# ----------------------------------------------------------------------
# bfs_distance_array regression: multi-seed / disconnected / empty /
# single-vertex, identical across dict, csr and parallel backends
# ----------------------------------------------------------------------


def _three_component_graph():
    """Two nontrivial components plus an isolated single vertex."""
    g = MultiGraph.with_vertices(9)
    for u, v in [(0, 1), (1, 2), (2, 3)]:   # path component
        g.add_edge(u, v)
    for u, v in [(4, 5), (5, 6), (6, 4)]:   # triangle component
        g.add_edge(u, v)
    # vertices 7, 8 stay isolated
    return g


def test_bfs_distance_array_multi_seed_disconnected():
    from repro.graph.csr import bfs_distance_array, snapshot_of

    g = _three_component_graph()
    snap = snapshot_of(g)
    offsets, nbr, n = snap.vertex_offsets, snap.neighbor_ids, snap.num_vertices
    dist = bfs_distance_array(offsets, nbr, n, [0, 4])
    # Seeds reach only their own components; everything else stays -1.
    assert dist.tolist() == [0, 1, 2, 3, 0, 1, 1, -1, -1]
    # The dict-facing entry point agrees across all three backends.
    for backend in ("auto", "dict", "csr"):
        assert bfs_distances(g, [0, 4], backend=backend) == {
            0: 0, 1: 1, 2: 2, 3: 3, 4: 0, 5: 1, 6: 1
        }


def test_bfs_distance_array_empty_seed_set():
    from repro.graph.csr import bfs_distance_array, snapshot_of

    g = _three_component_graph()
    snap = snapshot_of(g)
    args = (snap.vertex_offsets, snap.neighbor_ids, snap.num_vertices, [])
    assert bfs_distance_array(*args).tolist() == [-1] * g.n
    for backend in ("auto", "dict", "csr"):
        assert bfs_distances(g, [], backend=backend) == {}


def test_bfs_distance_array_single_vertex_component():
    from repro.graph.csr import bfs_distance_array, snapshot_of

    g = _three_component_graph()
    snap = snapshot_of(g)
    offsets, nbr, n = snap.vertex_offsets, snap.neighbor_ids, snap.num_vertices
    dist = bfs_distance_array(offsets, nbr, n, [7])
    expected = [-1] * n
    expected[7] = 0
    assert dist.tolist() == expected
    for backend in ("auto", "dict", "csr"):
        assert bfs_distances(g, [7], backend=backend) == {7: 0}
        assert diameter_of_component(g, [7], backend=backend) == 0
        assert weak_diameter(g, [7], backend=backend) == 0


def test_bfs_backends_agree_on_radius_capped_multi_seed():
    from repro.graph.csr import bfs_distance_array, snapshot_of
    from repro.graph.generators import preferential_attachment

    g = _three_component_graph()
    for radius in (0, 1, 2):
        reference = bfs_distances(g, [0, 4, 8], radius=radius, backend="dict")
        for backend in ("auto", "csr"):
            assert bfs_distances(
                g, [0, 4, 8], radius=radius, backend=backend
            ) == reference

    # Dense waves: on a preferential-attachment graph the frontier's
    # half-edges soon reach n / 8, where bfs_distance_array dedups with
    # a scatter mask instead of a sort.
    pa = preferential_attachment(3000, 3, seed=5)
    snap = snapshot_of(pa)
    offsets, nbr, n = snap.vertex_offsets, snap.neighbor_ids, snap.num_vertices
    for seeds in ([0], [2999], list(range(0, 3000, 47))):
        for radius in (None, 1, 2, 3):
            reference = bfs_distances(pa, seeds, radius=radius, backend="dict")
            dist = bfs_distance_array(offsets, nbr, n, seeds, radius)
            reached = {
                int(snap.vertex_ids[i]): int(dist[i])
                for i in np.flatnonzero(dist >= 0)
            }
            assert reached == reference


def test_weak_diameter_backends_agree():
    g = cycle_graph(8)
    for backend in ("auto", "dict", "csr"):
        assert weak_diameter(g, [0, 4], backend=backend) == 4
    broken = MultiGraph.with_vertices(3)
    broken.add_edge(0, 1)
    for backend in ("auto", "dict", "csr"):
        with pytest.raises(GraphError):
            weak_diameter(broken, [0, 1, 2], backend=backend)
