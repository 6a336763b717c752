"""Failure-injection tests: corrupted outputs must be caught loudly.

The validators are the reproduction's trust anchor — these tests tamper
with valid outputs in every way a buggy algorithm could and assert the
independent checkers reject each corruption.
"""

import pytest

from repro.errors import ValidationError
from repro.graph.generators import (
    cycle_graph,
    path_graph,
    star_graph,
    uniform_palette,
    union_of_random_forests,
)
from repro.nashwilliams import exact_forest_decomposition
from repro.verify import (
    check_forest_decomposition,
    check_forest_diameter,
    check_hpartition,
    check_orientation,
    check_palettes_respected,
    check_star_forest_decomposition,
    check_vertex_coloring_proper,
)


@pytest.fixture()
def valid_fd():
    g = union_of_random_forests(20, 2, seed=1)
    return g, exact_forest_decomposition(g)


def test_cycle_injection_caught(valid_fd):
    g, coloring = valid_fd
    # Force a monochromatic cycle: find two parallel-ish paths... simply
    # recolor all edges to one color; a graph with m > n-1 must cycle.
    broken = {eid: 0 for eid in coloring}
    with pytest.raises(ValidationError):
        check_forest_decomposition(g, broken)


def test_missing_edge_caught(valid_fd):
    g, coloring = valid_fd
    broken = dict(coloring)
    broken.pop(next(iter(broken)))
    with pytest.raises(ValidationError):
        check_forest_decomposition(g, broken)


def test_unknown_edge_caught(valid_fd):
    g, coloring = valid_fd
    broken = dict(coloring)
    broken[99999] = 0
    with pytest.raises(ValidationError):
        check_forest_decomposition(g, broken)


def test_color_cap_enforced(valid_fd):
    g, coloring = valid_fd
    with pytest.raises(ValidationError):
        check_forest_decomposition(g, coloring, max_colors=1)


def test_partial_mode_allows_gaps(valid_fd):
    g, coloring = valid_fd
    partial = dict(coloring)
    partial.pop(next(iter(partial)))
    check_forest_decomposition(g, partial, partial=True)  # no raise


def test_star_violation_caught():
    g = path_graph(4)  # 3-edge path: a forest but not a star forest
    coloring = {eid: 0 for eid in g.edge_ids()}
    check_forest_decomposition(g, coloring)
    with pytest.raises(ValidationError):
        check_star_forest_decomposition(g, coloring)


def test_palette_violation_caught():
    g = path_graph(3)
    palettes = uniform_palette(g, [0, 1])
    coloring = {eid: 5 for eid in g.edge_ids()}
    with pytest.raises(ValidationError):
        check_palettes_respected(coloring, palettes)


def test_diameter_violation_caught():
    g = path_graph(10)
    coloring = {eid: 0 for eid in g.edge_ids()}
    with pytest.raises(ValidationError):
        check_forest_diameter(g, coloring, 3)


def test_orientation_wrong_tail_caught():
    g = path_graph(3)
    orientation = {0: 0, 1: 0}  # vertex 0 is not an endpoint of edge 1
    with pytest.raises(ValidationError):
        check_orientation(g, orientation, 5)


def test_orientation_missing_edge_caught():
    g = path_graph(3)
    with pytest.raises(ValidationError):
        check_orientation(g, {0: 0}, 5)


def test_orientation_outdegree_cap():
    g = star_graph(5)
    orientation = {eid: 0 for eid in g.edge_ids()}  # all out of the hub
    with pytest.raises(ValidationError):
        check_orientation(g, orientation, 2)


def test_orientation_cycle_caught():
    g = cycle_graph(3)
    # Orient the triangle cyclically: 0->1->2->0.
    orientation = {}
    for eid, u, v in g.edges():
        orientation[eid] = u
    # Ensure it is actually cyclic by construction of cycle_graph edges.
    with pytest.raises(ValidationError):
        check_orientation(g, orientation, 3, require_acyclic=True)


def test_hpartition_violation_caught():
    g = star_graph(6)
    classes = {v: 1 for v in g.vertices()}  # hub has 5 same-class nbrs
    with pytest.raises(ValidationError):
        check_hpartition(g, classes, threshold=2)


def test_hpartition_missing_vertex_caught():
    g = path_graph(3)
    with pytest.raises(ValidationError):
        check_hpartition(g, {0: 1, 1: 1}, threshold=2)


def test_vertex_coloring_checker():
    g = path_graph(3)
    with pytest.raises(ValidationError):
        check_vertex_coloring_proper(g, {0: 1, 1: 1, 2: 0}, g.edge_ids())
    check_vertex_coloring_proper(g, {0: 0, 1: 1, 2: 0}, g.edge_ids())


def test_augmentation_state_tamper_detection():
    """PartialListForestDecomposition.assert_valid catches palette and
    leftover tampering, not just cycles."""
    from repro.core import PartialListForestDecomposition

    g = path_graph(4)
    state = PartialListForestDecomposition(g, uniform_palette(g, [0, 1]))
    state.set_color(0, 0)
    state._color[0] = 99  # bypass palette guard
    state._detach(0, 0)
    state._attach(0, 99)
    with pytest.raises(ValidationError):
        state.assert_valid()


def test_leftover_tamper_detection():
    from repro.core import PartialListForestDecomposition

    g = path_graph(4)
    state = PartialListForestDecomposition(g, uniform_palette(g, [0]))
    state.set_color(0, 0)
    state._leftover.add(0)  # colored edge marked leftover
    with pytest.raises(ValidationError):
        state.assert_valid()
