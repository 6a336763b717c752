"""Tests for the partial list-forest decomposition state."""

import pytest

from repro.errors import GraphError, PaletteError, ValidationError
from repro.graph import MultiGraph
from repro.graph.generators import cycle_graph, path_graph, uniform_palette
from repro.core import PartialListForestDecomposition


def fresh_state(graph, colors=(0, 1, 2)):
    return PartialListForestDecomposition(graph, uniform_palette(graph, colors))


def test_initially_uncolored():
    g = path_graph(4)
    state = fresh_state(g)
    assert state.uncolored_edges() == g.edge_ids()
    assert state.colored_edges() == {}
    assert state.used_colors() == set()


def test_set_and_get_color():
    g = path_graph(4)
    state = fresh_state(g)
    state.set_color(0, 1)
    assert state.color_of(0) == 1
    assert state.used_colors() == {1}
    assert 0 not in state.uncolored_edges()


def test_palette_enforced():
    g = path_graph(3)
    state = fresh_state(g, colors=(0, 1))
    with pytest.raises(PaletteError):
        state.set_color(0, 99)
    state.set_color(0, 99, check_palette=False)  # explicit override allowed
    assert state.color_of(0) == 99


def test_cycle_refused():
    g = cycle_graph(3)
    state = fresh_state(g)
    state.set_color(0, 0)
    state.set_color(1, 0)
    with pytest.raises(ValidationError):
        state.set_color(2, 0)
    # State unchanged after the failed attempt.
    assert state.color_of(2) is None
    state.set_color(2, 1)
    state.assert_valid()


def test_parallel_edges_cycle_refused():
    g = MultiGraph.from_edges(2, [(0, 1), (0, 1)])
    state = fresh_state(g)
    state.set_color(0, 0)
    with pytest.raises(ValidationError):
        state.set_color(1, 0)
    state.set_color(1, 1)


def test_recolor_moves_edge():
    g = path_graph(3)
    state = fresh_state(g)
    state.set_color(0, 0)
    state.set_color(0, 1)
    assert state.color_of(0) == 1
    assert state.class_edges(0) == []
    assert state.class_edges(1) == [0]


def test_recolor_failed_restores_old_color():
    g = cycle_graph(3)
    state = fresh_state(g)
    state.set_color(0, 0)
    state.set_color(1, 0)
    state.set_color(2, 1)
    with pytest.raises(ValidationError):
        state.set_color(2, 0)
    assert state.color_of(2) == 1  # restored


def test_uncolor():
    g = path_graph(3)
    state = fresh_state(g)
    state.set_color(0, 0)
    state.uncolor(0)
    assert state.color_of(0) is None
    assert state.class_edges(0) == []


def test_color_path_queries():
    g = path_graph(5)  # edges 0:(0,1) 1:(1,2) 2:(2,3) 3:(3,4)
    state = fresh_state(g)
    state.set_color(1, 0)
    state.set_color(2, 0)
    # C(e, 0) for edge 3 = (3,4): vertices 3 and 4: 4 not in color-0 -> empty.
    assert state.color_path(3, 0) is None
    # Add edge 0 so color 0 spans 0-1-2-3; C for an edge joining 0 and 3?
    state.set_color(0, 0)
    # Fake query via an actual edge: recolor edge 3 irrelevant; query C(e,c)
    # for edge 1 in color 0 is the edge itself.
    assert state.color_path(1, 0) == [1]


def test_color_path_between_endpoints():
    # Triangle: color two edges 0, path between endpoints of the third.
    g = cycle_graph(3)  # edges 0:(0,1) 1:(1,2) 2:(2,0)
    state = fresh_state(g)
    state.set_color(0, 0)
    state.set_color(1, 0)
    path = state.color_path(2, 0)
    assert sorted(path) == [0, 1]


def test_color_component_vertices():
    g = path_graph(5)
    state = fresh_state(g)
    state.set_color(0, 0)
    state.set_color(1, 0)
    assert state.color_component_vertices(0, 0) == {0, 1, 2}
    assert state.color_component_vertices(4, 0) == {4}


def test_leftover_handling():
    g = path_graph(4)
    state = fresh_state(g)
    state.set_color(1, 0)
    state.remove_to_leftover(1, tail=1)
    assert state.is_leftover(1)
    assert state.color_of(1) is None
    assert state.leftover_edges() == [1]
    assert state.leftover_orientation() == {1: 1}
    assert 1 not in state.uncolored_edges()
    with pytest.raises(ValidationError):
        state.set_color(1, 0)


def test_leftover_bad_tail():
    g = path_graph(4)
    state = fresh_state(g)
    with pytest.raises(ValidationError):
        state.remove_to_leftover(0, tail=3)


def test_assert_valid_detects_tampering():
    g = cycle_graph(3)
    state = fresh_state(g)
    state.set_color(0, 0)
    state.set_color(1, 0)
    # Bypass the guard to fabricate a cycle: assert_valid re-checks the
    # coloring map from scratch and reads nothing else.
    state._color[2] = 0
    with pytest.raises(ValidationError):
        state.assert_valid()


def test_cycle_closing_attach_raises():
    g = cycle_graph(3)
    state = fresh_state(g)
    state.set_color(0, 0)
    state.set_color(1, 0)
    with pytest.raises(GraphError):
        state._attach(2, 0)
    # The refused link left the color class untouched.
    assert state.class_edges(0) == [0, 1]
    assert state.color_path(2, 0) is not None
    state.assert_valid()


def test_coloring_snapshot_is_copy():
    g = path_graph(3)
    state = fresh_state(g)
    snap = state.coloring()
    snap[0] = 99
    assert state.color_of(0) is None
