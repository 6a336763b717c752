"""Tests for Theorem 2.3: (4+eps)alpha*-list-star-forest decomposition."""

import pytest

from repro.errors import PaletteError
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    line_multigraph,
    random_palettes,
    uniform_palette,
    union_of_random_forests,
)
from repro.local import RoundCounter
from repro.decomposition import (
    list_star_forest_decomposition,
    lsfd_palette_requirement,
)
from repro.nashwilliams import exact_pseudoarboricity
from repro.verify import (
    check_palettes_respected,
    check_star_forest_decomposition,
)


def run_lsfd(graph, epsilon=0.5, seed=0, color_space_factor=3):
    pseudo = max(1, exact_pseudoarboricity(graph))
    required = max(1, lsfd_palette_requirement(pseudo, epsilon))
    palettes = random_palettes(
        graph, required, color_space_factor * required, seed=seed
    )
    coloring = list_star_forest_decomposition(
        graph, palettes, pseudo, epsilon
    )
    check_star_forest_decomposition(graph, coloring)
    check_palettes_respected(coloring, palettes)
    return coloring


def test_lsfd_forest_union():
    run_lsfd(union_of_random_forests(40, 3, seed=1))


def test_lsfd_grid():
    run_lsfd(grid_graph(6, 6))


def test_lsfd_cycle():
    run_lsfd(cycle_graph(12))


def test_lsfd_multigraph():
    run_lsfd(line_multigraph(8, 3))


def test_lsfd_complete_graph():
    run_lsfd(complete_graph(10))


def test_lsfd_uniform_palettes_color_count():
    g = union_of_random_forests(30, 2, seed=3)
    pseudo = max(1, exact_pseudoarboricity(g))
    required = lsfd_palette_requirement(pseudo, 0.5)
    palettes = uniform_palette(g, range(required))
    coloring = list_star_forest_decomposition(g, palettes, pseudo, 0.5)
    count = check_star_forest_decomposition(g, coloring, max_colors=required)
    assert count <= required


def test_lsfd_empty_graph():
    from repro.graph import MultiGraph

    g = MultiGraph.with_vertices(3)
    assert list_star_forest_decomposition(g, {}, 1) == {}


def test_lsfd_palette_too_small():
    g = complete_graph(8)
    palettes = uniform_palette(g, [0, 1])  # far below (4+eps)alpha*-1
    with pytest.raises(PaletteError):
        list_star_forest_decomposition(g, palettes, exact_pseudoarboricity(g))


def test_lsfd_rounds_charged():
    g = union_of_random_forests(25, 2, seed=5)
    pseudo = max(1, exact_pseudoarboricity(g))
    required = lsfd_palette_requirement(pseudo, 0.5)
    palettes = uniform_palette(g, range(required))
    rc = RoundCounter()
    list_star_forest_decomposition(g, palettes, pseudo, 0.5, rounds=rc)
    assert rc.total > 0
    assert any("h-partition" in key for key in rc.by_phase())


def test_palette_requirement_values():
    assert lsfd_palette_requirement(1, 0.5) == 3  # floor(4.5 - 1)
    assert lsfd_palette_requirement(3, 1.0) == 14


def test_lsfd_skewed_palettes():
    from repro.graph.generators import skewed_palettes

    g = union_of_random_forests(30, 2, seed=7)
    pseudo = max(1, exact_pseudoarboricity(g))
    required = lsfd_palette_requirement(pseudo, 0.5)
    palettes = skewed_palettes(g, required, 2 * required, seed=8)
    coloring = list_star_forest_decomposition(g, palettes, pseudo, 0.5)
    check_star_forest_decomposition(g, coloring)
    check_palettes_respected(coloring, palettes)
