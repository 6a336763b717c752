"""Tests for workload generators."""

import pytest

from repro.errors import GraphError
from repro.graph import connected_components, is_forest
from repro.graph.generators import (
    add_parallel_copies,
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi,
    grid_graph,
    line_multigraph,
    path_graph,
    preferential_attachment,
    random_bipartite,
    random_palettes,
    random_regular_multigraph,
    skewed_palettes,
    star_graph,
    uniform_palette,
    union_of_random_forests,
)


def test_path_cycle_star_complete_counts():
    assert path_graph(5).m == 4
    assert cycle_graph(5).m == 5
    assert star_graph(5).m == 4
    k5 = complete_graph(5)
    assert k5.m == 10
    assert k5.is_simple()


def test_cycle_too_small():
    with pytest.raises(GraphError):
        cycle_graph(2)


def test_grid_counts():
    g = grid_graph(3, 4)
    assert g.n == 12
    assert g.m == 3 * 3 + 2 * 4  # horizontal + vertical


def test_union_of_forests_arboricity_bound():
    g = union_of_random_forests(30, 4, seed=1)
    assert g.n == 30
    assert g.m == 4 * 29
    # Each forest layer alone is a forest; overall density == 4 exactly.
    assert g.m == 4 * (g.n - 1)


def test_union_of_forests_deterministic():
    a = union_of_random_forests(20, 3, seed=42)
    b = union_of_random_forests(20, 3, seed=42)
    assert a == b


def test_union_of_forests_simple_mode():
    g = union_of_random_forests(25, 3, seed=7, simple=True)
    assert g.is_simple()


def test_union_of_forests_density():
    g = union_of_random_forests(30, 2, seed=3, density=0.5)
    assert g.m < 2 * 29


def test_line_multigraph():
    g = line_multigraph(5, 3)
    assert g.n == 5
    assert g.m == 4 * 3
    assert g.multiplicity(0, 1) == 3
    with pytest.raises(GraphError):
        line_multigraph(1, 2)
    with pytest.raises(GraphError):
        line_multigraph(3, 0)


def test_erdos_renyi_extremes():
    assert erdos_renyi(10, 0.0, seed=0).m == 0
    assert erdos_renyi(10, 1.0, seed=0).m == 45


def test_erdos_renyi_deterministic():
    assert erdos_renyi(15, 0.3, seed=5) == erdos_renyi(15, 0.3, seed=5)


def test_random_regular_degrees():
    g = random_regular_multigraph(10, 4, seed=2)
    assert g.m == 20
    for v in g.vertices():
        assert g.degree(v) == 4


def test_random_regular_parity_check():
    with pytest.raises(GraphError):
        random_regular_multigraph(5, 3, seed=0)


def test_preferential_attachment():
    g = preferential_attachment(40, 3, seed=9)
    assert g.n == 40
    assert g.is_simple()
    # Arboricity at most out_degree: check density of whole graph.
    assert g.m <= 3 * (g.n - 1)
    assert len(connected_components(g)) == 1


def test_random_bipartite():
    g = random_bipartite(5, 7, 0.5, seed=4)
    for eid, u, v in g.edges():
        assert (u < 5) != (v < 5)


def test_add_parallel_copies():
    g = add_parallel_copies(path_graph(4), 3)
    assert g.m == 9
    assert g.multiplicity(0, 1) == 3
    with pytest.raises(GraphError):
        add_parallel_copies(path_graph(3), 0)


def test_uniform_palette():
    g = path_graph(4)
    pal = uniform_palette(g, [0, 1, 2])
    assert set(pal.keys()) == set(g.edge_ids())
    assert all(p == [0, 1, 2] for p in pal.values())


def test_random_palettes():
    g = path_graph(10)
    pal = random_palettes(g, 3, 8, seed=1)
    for p in pal.values():
        assert len(p) == 3
        assert len(set(p)) == 3
        assert all(0 <= c < 8 for c in p)
    with pytest.raises(GraphError):
        random_palettes(g, 9, 8, seed=1)


def test_skewed_palettes():
    g = path_graph(20)
    pal = skewed_palettes(g, 4, 20, hot_fraction=0.5, seed=2)
    for p in pal.values():
        assert len(p) == 4
        assert len(set(p)) == 4


def test_empty_graph():
    g = empty_graph(7)
    assert g.n == 7
    assert g.m == 0


def test_wheel_graph():
    from repro.graph.generators import wheel_graph

    g = wheel_graph(8)
    assert g.n == 8
    assert g.m == 2 * 7  # 7 spokes + 7 rim edges
    assert g.degree(0) == 7  # hub
    with pytest.raises(GraphError):
        wheel_graph(3)


def test_wheel_arboricity_two():
    from repro.graph.generators import wheel_graph
    from repro.nashwilliams import exact_arboricity

    assert exact_arboricity(wheel_graph(10)) == 2


def test_caterpillar():
    from repro.graph.generators import caterpillar

    g = caterpillar(4, 3)
    assert g.n == 4 + 12
    assert g.m == 3 + 12  # spine + legs
    assert is_forest(g, g.edge_ids())
    with pytest.raises(GraphError):
        caterpillar(0, 2)
