"""Tests for the exact list-forest backtracking solver and Seymour's
theorem (empirically: alpha-size palettes always admit an alpha-LFD)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import MultiGraph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    line_multigraph,
    uniform_palette,
)
from repro.nashwilliams import exact_arboricity
from repro.verify import check_forest_decomposition, check_palettes_respected

from reference.list_forest_exact import (
    exact_list_forest_decomposition,
    seymour_holds,
)


def test_triangle_two_colors():
    g = cycle_graph(3)
    palettes = uniform_palette(g, [0, 1])
    result = exact_list_forest_decomposition(g, palettes)
    assert result is not None
    check_forest_decomposition(g, result)
    check_palettes_respected(result, palettes)


def test_triangle_one_color_impossible():
    g = cycle_graph(3)
    palettes = uniform_palette(g, [0])
    assert exact_list_forest_decomposition(g, palettes) is None


def test_disjoint_palettes():
    # Two parallel edges with disjoint singleton palettes: feasible.
    g = MultiGraph.from_edges(2, [(0, 1), (0, 1)])
    palettes = {0: [7], 1: [9]}
    result = exact_list_forest_decomposition(g, palettes)
    assert result == {0: 7, 1: 9}


def test_conflicting_singleton_palettes():
    g = MultiGraph.from_edges(2, [(0, 1), (0, 1)])
    palettes = {0: [7], 1: [7]}
    assert exact_list_forest_decomposition(g, palettes) is None


def test_size_guard():
    g = complete_graph(10)
    with pytest.raises(GraphError):
        exact_list_forest_decomposition(g, uniform_palette(g, range(5)))


def test_empty_graph():
    g = MultiGraph.with_vertices(2)
    assert exact_list_forest_decomposition(g, {}) == {}


def test_seymour_requires_alpha_palettes():
    g = cycle_graph(4)
    palettes = uniform_palette(g, [0])
    with pytest.raises(GraphError):
        seymour_holds(g, palettes, alpha=2)


def test_seymour_line_multigraph():
    g = line_multigraph(4, 2)
    alpha = exact_arboricity(g)
    palettes = {
        eid: [eid % 3, (eid + 1) % 3] for eid in g.edge_ids()
    }
    assert seymour_holds(g, palettes, alpha)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1_000_000))
def test_seymour_theorem_empirical(seed):
    """[Sey98]: any palettes of size alpha admit an alpha-LFD.

    Random tiny multigraphs, random alpha-size palettes from a small
    color space (small spaces maximize conflicts).
    """
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    g = MultiGraph.with_vertices(n)
    for _ in range(rng.randint(1, 10)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    if g.m == 0:
        return
    alpha = exact_arboricity(g)
    space = alpha + rng.randint(1, 3)
    palettes = {
        eid: sorted(rng.sample(range(space), alpha)) for eid in g.edge_ids()
    }
    assert seymour_holds(g, palettes, alpha), (
        f"Seymour counterexample?! seed={seed}"
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1_000_000))
def test_augmentation_matches_exact_feasibility(seed):
    """If the exact solver finds an LFD with (alpha+1)-size palettes,
    the augmentation framework must too (Theorem 3.2 regime)."""
    from repro.core import PartialListForestDecomposition
    from repro.core.augmenting import augment_edge

    rng = random.Random(seed)
    n = rng.randint(2, 6)
    g = MultiGraph.with_vertices(n)
    for _ in range(rng.randint(1, 9)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    if g.m == 0:
        return
    alpha = exact_arboricity(g)
    size = alpha + 1
    space = size + 2
    palettes = {
        eid: sorted(rng.sample(range(space), size)) for eid in g.edge_ids()
    }
    state = PartialListForestDecomposition(g, palettes)
    order = g.edge_ids()
    rng.shuffle(order)
    for eid in order:
        augment_edge(state, eid)
    state.assert_valid()
    assert not state.uncolored_edges()