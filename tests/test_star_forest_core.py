"""Tests for Section 5: AMR-style star-forest decompositions."""

import math

import pytest

from repro.errors import ConvergenceError, GraphError
from repro.graph import MultiGraph
from repro.graph.generators import (
    add_parallel_copies,
    erdos_renyi,
    grid_graph,
    path_graph,
    random_palettes,
    uniform_palette,
    union_of_random_forests,
)
from repro.local import RoundCounter
from repro.core import (
    list_star_forest_decomposition_amr,
    star_forest_decomposition_amr,
    two_coloring_star_forests,
)
from repro.nashwilliams import exact_arboricity, exact_forest_decomposition
from repro.verify import (
    check_palettes_respected,
    check_star_forest_decomposition,
)


def test_sfd_forest_union():
    g = union_of_random_forests(40, 4, seed=1, simple=True)
    result = star_forest_decomposition_amr(g, epsilon=0.5, alpha=4, seed=2)
    check_star_forest_decomposition(g, result.coloring)
    assert result.colors_used >= 4  # at least alpha colors needed


def test_sfd_grid():
    g = grid_graph(6, 6)
    alpha = exact_arboricity(g)
    result = star_forest_decomposition_amr(g, epsilon=0.5, alpha=alpha, seed=3)
    check_star_forest_decomposition(g, result.coloring)


def test_sfd_rejects_multigraph():
    g = add_parallel_copies(path_graph(4), 2)
    with pytest.raises(GraphError):
        star_forest_decomposition_amr(g, 0.5, alpha=2)


def test_sfd_empty():
    g = MultiGraph.with_vertices(3)
    result = star_forest_decomposition_amr(g, 0.5)
    assert result.coloring == {}
    assert result.colors_used == 0


def test_sfd_stats_populated():
    g = union_of_random_forests(30, 3, seed=4, simple=True)
    result = star_forest_decomposition_amr(g, epsilon=0.5, alpha=3, seed=5)
    assert result.stats.orientation_bound == math.ceil(1.5 * 3)
    assert result.stats.matching_deficits  # one entry per vertex
    assert result.stats.leftover_size >= 0


def test_sfd_excess_shrinks_with_alpha():
    """Excess colors over alpha should shrink *relatively* as alpha grows
    (the O(sqrt(log D) + log a) excess of Theorem 5.4)."""
    ratios = []
    for alpha in (3, 8):
        g = union_of_random_forests(60, alpha, seed=alpha, simple=True)
        a = exact_arboricity(g)
        result = star_forest_decomposition_amr(g, epsilon=0.4, alpha=a, seed=6)
        check_star_forest_decomposition(g, result.coloring)
        ratios.append(result.colors_used / a)
    assert ratios[1] <= ratios[0] + 0.75  # no blow-up as alpha grows


def test_lsfd_valid_and_palette_respecting():
    g = union_of_random_forests(40, 4, seed=7, simple=True)
    t = math.ceil(1.5 * 4)
    palettes = random_palettes(g, 6 * t, 12 * t, seed=8)
    result = list_star_forest_decomposition_amr(
        g, palettes, epsilon=0.5, alpha=4, seed=9
    )
    check_star_forest_decomposition(g, result.coloring)
    check_palettes_respected(result.coloring, palettes)
    # No leftover in the list variant: everything colored from palettes.
    assert set(result.coloring) == set(g.edge_ids())


def test_lsfd_infeasible_regime_raises():
    """epsilon * alpha << 1 makes per-edge availability ~0: the LLL
    cannot converge and the implementation must say so loudly."""
    g = union_of_random_forests(30, 3, seed=10, simple=True)
    palettes = uniform_palette(g, range(12))
    with pytest.raises(ConvergenceError):
        list_star_forest_decomposition_amr(
            g, palettes, epsilon=0.01, alpha=3, seed=11, max_lll_rounds=5
        )


def test_lsfd_empty():
    g = MultiGraph.with_vertices(2)
    result = list_star_forest_decomposition_amr(g, {}, 0.5)
    assert result.coloring == {}


def test_two_coloring_baseline():
    """alphastar <= 2 alpha via depth-parity splitting of an exact FD."""
    g = union_of_random_forests(50, 3, seed=12, simple=True)
    fd = exact_forest_decomposition(g)
    alpha = exact_arboricity(g)
    coloring = two_coloring_star_forests(g, fd)
    count = check_star_forest_decomposition(g, coloring, max_colors=2 * alpha)
    assert count <= 2 * alpha


def test_two_coloring_baseline_on_multigraph():
    g = add_parallel_copies(path_graph(20), 3)
    fd = exact_forest_decomposition(g)
    coloring = two_coloring_star_forests(g, fd)
    check_star_forest_decomposition(g, coloring, max_colors=2 * 3)


def test_sfd_rounds_charged():
    g = union_of_random_forests(25, 3, seed=13, simple=True)
    rc = RoundCounter()
    star_forest_decomposition_amr(g, 0.5, alpha=3, seed=14, rounds=rc)
    assert rc.total > 0
    assert any("t-orientation" in key or "(top)" in key for key in rc.by_phase())


def test_sfd_er_graph():
    g = erdos_renyi(40, 0.15, seed=15)
    alpha = exact_arboricity(g)
    if alpha >= 1:
        result = star_forest_decomposition_amr(g, 0.5, alpha=alpha, seed=16)
        check_star_forest_decomposition(g, result.coloring)


def test_sfd_builds_each_snapshot_once(monkeypatch):
    """One star_forest call converts the host graph once (t-orientation,
    simplicity check); the leftover subgraph is taken from that
    snapshot (its pseudoarboricity, H-partition and acyclic orientation
    all read it), so no second graph is converted."""
    from repro.graph.csr import CSRGraph

    graph = union_of_random_forests(600, 4, seed=3, simple=True)
    builds = []
    subgraphs = []
    original = CSRGraph.from_multigraph.__func__
    original_subgraph = CSRGraph.edge_subgraph

    def counting(cls, g):
        builds.append(g)
        return original(cls, g)

    def counting_subgraph(self, eids):
        sub = original_subgraph(self, eids)
        subgraphs.append(sub)
        return sub

    monkeypatch.setattr(CSRGraph, "from_multigraph", classmethod(counting))
    monkeypatch.setattr(CSRGraph, "edge_subgraph", counting_subgraph)
    result = star_forest_decomposition_amr(graph, epsilon=0.5, alpha=4, seed=3)
    leftover = result.stats.leftover_size
    assert leftover > 0
    assert len(builds) == 1 and builds[0] is graph
    assert [sub.m for sub in subgraphs] == [leftover]


def test_simplicity_checked_once_per_call(monkeypatch):
    """A Session star_forest call answers "is the graph simple?" from
    the host snapshot once; MultiGraph's adjacency walk never runs."""
    from repro.core import DecompositionConfig, Session
    from repro.graph.csr import CSRGraph, snapshot_of

    graph = union_of_random_forests(40, 4, seed=7, simple=True)
    scans = []
    original = CSRGraph.is_simple

    def counting(self):
        if self._simple is None:
            scans.append(self)
        return original(self)

    def forbidden(self):
        raise AssertionError("MultiGraph.is_simple walked the adjacency")

    monkeypatch.setattr(CSRGraph, "is_simple", counting)
    monkeypatch.setattr(MultiGraph, "is_simple", forbidden)
    session = Session(graph)
    config = DecompositionConfig(epsilon=0.5, alpha=4, seed=9)
    session.decompose("star_forest", config)
    session.decompose(
        "list_star_forest", config,
        palettes=random_palettes(graph, 36, 72, seed=8),
    )
    assert scans == [snapshot_of(graph)]
