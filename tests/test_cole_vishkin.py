"""Tests for centralized Cole-Vishkin 3-coloring (cross-checked with the
distributed node-program version)."""

from repro.graph import MultiGraph, RootedForest
from repro.graph.generators import path_graph, star_graph, union_of_random_forests
from repro.local import RoundCounter, run_distributed_tree_coloring
from repro.decomposition import three_color_rooted_forest


def proper(graph, eids, colors):
    for eid in eids:
        u, v = graph.endpoints(eid)
        if colors[u] == colors[v]:
            return False
    return True


def test_path_coloring():
    g = path_graph(64)
    forest = RootedForest(g, g.edge_ids(), roots=[0])
    colors = three_color_rooted_forest(forest.parent)
    assert proper(g, g.edge_ids(), colors)
    assert set(colors.values()) <= {0, 1, 2}


def test_star_coloring():
    g = star_graph(20)
    forest = RootedForest(g, g.edge_ids(), roots=[0])
    colors = three_color_rooted_forest(forest.parent)
    assert proper(g, g.edge_ids(), colors)
    assert set(colors.values()) <= {0, 1, 2}


def test_random_forest_coloring():
    g = union_of_random_forests(100, 1, seed=3)
    forest = RootedForest(g, g.edge_ids())
    colors = three_color_rooted_forest(forest.parent)
    assert proper(g, g.edge_ids(), colors)
    assert set(colors.values()) <= {0, 1, 2}


def test_rounds_charged_log_star():
    g = path_graph(1000)
    forest = RootedForest(g, g.edge_ids(), roots=[0])
    rc = RoundCounter()
    three_color_rooted_forest(forest.parent, rc)
    assert 0 < rc.total <= 30  # O(log* n) + 6 shift rounds


def test_empty_forest():
    g = MultiGraph.with_vertices(4)
    forest = RootedForest(g, [])
    assert three_color_rooted_forest(forest.parent) == {}


def test_matches_distributed_guarantees():
    """Centralized and distributed versions both 3-color properly."""
    g = union_of_random_forests(60, 1, seed=9)
    forest = RootedForest(g, g.edge_ids())
    central = three_color_rooted_forest(forest.parent)
    parents = {v: forest.parent_edge[v] for v in forest.vertices()}
    # The distributed run needs the graph restricted to forest edges
    # (here the graph IS the forest).
    distributed, _ = run_distributed_tree_coloring(g, parents)
    for colors in (central, distributed):
        assert proper(g, g.edge_ids(), colors)
        assert set(colors.values()) <= {0, 1, 2}
