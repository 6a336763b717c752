"""Tests for genuine distributed node programs (H-partition, Cole-Vishkin)."""

from repro.graph import MultiGraph, RootedForest
from repro.graph.generators import (
    complete_graph,
    path_graph,
    star_graph,
    union_of_random_forests,
)
from repro.local import (
    cole_vishkin_iterations,
    run_distributed_hpartition,
    run_distributed_tree_coloring,
)


def check_hpartition_property(graph, classes, threshold):
    """Every v in H_i has at most `threshold` neighbors in H_i u ... u H_k."""
    for v in graph.vertices():
        later = sum(
            1
            for eid, other in graph.incident(v)
            if classes[other] >= classes[v]
        )
        assert later <= threshold, f"vertex {v} has {later} later neighbors"


def test_hpartition_on_forest_union():
    g = union_of_random_forests(40, 3, seed=1)
    threshold = 2 * 3 + 1  # (2+eps) * alpha with eps ~ 1/3
    classes, rounds = run_distributed_hpartition(g, threshold)
    assert all(c >= 1 for c in classes.values())
    check_hpartition_property(g, classes, threshold)
    assert rounds >= 1


def test_hpartition_path_single_wave():
    g = path_graph(10)
    classes, rounds = run_distributed_hpartition(g, 2)
    # Every vertex of a path has degree <= 2: everyone leaves in wave 1.
    assert set(classes.values()) == {1}


def test_hpartition_star():
    g = star_graph(10)
    classes, _ = run_distributed_hpartition(g, 2)
    # Leaves go in wave 1; the center (degree 9) goes in wave 2.
    assert classes[0] == 2
    assert all(classes[v] == 1 for v in range(1, 10))


def test_hpartition_complete_graph():
    g = complete_graph(8)
    # alpha* of K8 is 4ish; threshold 7 removes everyone immediately.
    classes, _ = run_distributed_hpartition(g, 7)
    check_hpartition_property(g, classes, 7)


def test_hpartition_class_count_logarithmic():
    g = union_of_random_forests(100, 2, seed=3)
    threshold = 5
    classes, _ = run_distributed_hpartition(g, threshold)
    # O(log n / eps) classes; generous empirical cap.
    assert max(classes.values()) <= 20
    check_hpartition_property(g, classes, threshold)


def check_proper(graph, colors):
    for _eid, u, v in graph.edges():
        assert colors[u] != colors[v], f"edge {u}-{v} monochromatic"


def rooted_path(n):
    g = path_graph(n)
    forest = RootedForest(g, g.edge_ids(), roots=[0])
    return g, {v: forest.parent_edge[v] for v in g.vertices()}


def test_cole_vishkin_path():
    g, parents = rooted_path(50)
    colors, rounds = run_distributed_tree_coloring(g, parents)
    check_proper(g, colors)
    assert set(colors.values()) <= {0, 1, 2}
    # O(log* n) + constant rounds; generous cap.
    assert rounds <= 30


def test_cole_vishkin_star():
    g = star_graph(30)
    forest = RootedForest(g, g.edge_ids(), roots=[0])
    parents = {v: forest.parent_edge[v] for v in g.vertices()}
    colors, _ = run_distributed_tree_coloring(g, parents)
    check_proper(g, colors)
    assert set(colors.values()) <= {0, 1, 2}


def test_cole_vishkin_random_forest():
    g = union_of_random_forests(80, 1, seed=7)
    forest = RootedForest(g, g.edge_ids())
    parents = {v: forest.parent_edge[v] for v in g.vertices()}
    colors, _ = run_distributed_tree_coloring(g, parents)
    check_proper(g, colors)
    assert set(colors.values()) <= {0, 1, 2}


def test_cole_vishkin_rounds_scale_slowly():
    """log* growth: rounds for n=1000 barely exceed rounds for n=10."""
    g_small, parents_small = rooted_path(10)
    g_big, parents_big = rooted_path(1000)
    _, rounds_small = run_distributed_tree_coloring(g_small, parents_small)
    _, rounds_big = run_distributed_tree_coloring(g_big, parents_big)
    assert rounds_big <= rounds_small + 4


def test_cole_vishkin_iterations_monotone():
    assert cole_vishkin_iterations(2) >= 1
    assert cole_vishkin_iterations(10**6) <= 8


def test_cole_vishkin_singleton_trees():
    g = MultiGraph.with_vertices(3)
    colors, _ = run_distributed_tree_coloring(g, {})
    assert set(colors.values()) <= {0, 1, 2}
