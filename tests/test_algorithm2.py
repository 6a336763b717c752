"""Tests for Algorithm 2 and the Theorem 4.5/4.6 pipelines."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import MultiGraph
from repro.graph.csr import snapshot_of
from repro.graph.generators import (
    add_parallel_copies,
    complete_graph,
    cycle_graph,
    grid_graph,
    line_multigraph,
    path_graph,
    random_palettes,
    uniform_palette,
    union_of_random_forests,
)
from repro.local import RoundCounter
from repro.core import (
    algorithm2,
    forest_decomposition_algorithm2,
)
from repro.core.forest_decomposition import _BallResolver
from repro.nashwilliams import exact_arboricity
from repro.verify import (
    check_forest_decomposition,
    check_forest_diameter,
    check_palettes_respected,
    count_colors,
    pseudoarboricity_upper_bound_check,
)


def test_algorithm2_colors_everything_not_leftover():
    g = union_of_random_forests(50, 3, seed=1)
    palettes = uniform_palette(g, range(4))
    result = algorithm2(g, palettes, epsilon=1.0 / 3, alpha=3, seed=2)
    colored = result.colored
    leftover = set(result.leftover)
    assert set(colored) | leftover == set(g.edge_ids())
    check_forest_decomposition(g, colored, partial=True)
    check_palettes_respected(colored, palettes)


def test_algorithm2_leftover_budget():
    g = union_of_random_forests(60, 3, seed=3)
    palettes = uniform_palette(g, range(4))
    result = algorithm2(
        g, palettes, epsilon=1.0 / 3, alpha=3, seed=4, radius=6, search_radius=6
    )
    leftover = result.leftover
    if leftover:
        budget = math.ceil((1.0 / 3) * 3)  # = 1... allow recorded bound
        orientation = result.leftover_orientation()
        out = {}
        for eid, tail in orientation.items():
            out[tail] = out.get(tail, 0) + 1
        assert max(out.values()) <= math.ceil(1.0 / 3 * 3) + 1


def test_algorithm2_with_list_palettes():
    g = union_of_random_forests(40, 3, seed=5)
    palettes = random_palettes(g, 5, 12, seed=6)
    result = algorithm2(g, palettes, epsilon=0.5, alpha=3, seed=7)
    check_forest_decomposition(g, result.colored, partial=True)
    check_palettes_respected(result.colored, palettes)
    assert not result.state.uncolored_edges()


def test_algorithm2_small_radius_forces_cuts():
    """With tiny radii on a long-diameter multigraph the network
    decomposition has several clusters and CUT really fires."""
    g = line_multigraph(90, 2)
    palettes = uniform_palette(g, range(3))
    result = algorithm2(
        g, palettes, epsilon=0.5, alpha=2, seed=9, radius=2, search_radius=2
    )
    assert result.stats.clusters_processed >= 2
    check_forest_decomposition(g, result.colored, partial=True)
    # Everything not leftover is colored.
    assert not result.state.uncolored_edges()


def test_algorithm2_good_cuts_recorded():
    g = union_of_random_forests(60, 2, seed=10)
    palettes = uniform_palette(g, range(3))
    result = algorithm2(
        g, palettes, epsilon=0.5, alpha=2, seed=11, radius=5, search_radius=5
    )
    assert result.stats.good_cuts + result.stats.bad_cuts == (
        result.stats.clusters_processed
    )
    # Depth-residue cuts are good deterministically.
    assert result.stats.bad_cuts == 0


def test_algorithm2_empty_graph():
    g = MultiGraph.with_vertices(4)
    result = algorithm2(g, {}, 0.5, 1)
    assert result.colored == {}
    assert result.leftover == []


def test_algorithm2_rounds_charged():
    g = union_of_random_forests(30, 2, seed=12)
    palettes = uniform_palette(g, range(3))
    rc = RoundCounter()
    algorithm2(g, palettes, 0.5, 2, seed=13, rounds=rc)
    phases = rc.by_phase()
    assert any("network decomposition" in key for key in phases)
    assert any("cluster processing" in key for key in phases)
    assert rc.total > 0


# ----------------------------------------------------------------------
# R'-balls resolved per component
# ----------------------------------------------------------------------


def _multi_component_graph(rng):
    """Random multigraph with several components (some isolated
    vertices), gappy vertex ids added out of order, parallel edges and
    deleted edges."""
    count = rng.randint(1, 24)
    ids = rng.sample(range(3 * count + 5), count)
    g = MultiGraph()
    for vertex in ids:
        g.add_vertex(vertex)
    groups = []
    rest = list(ids)
    while rest:
        size = rng.randint(1, max(1, len(rest)))
        groups.append(rest[:size])
        rest = rest[size:]
    for group in groups:
        for i in range(1, len(group)):  # random spanning tree
            g.add_edge(group[rng.randrange(i)], group[i])
        for _ in range(rng.randint(0, len(group))):
            if len(group) > 1:
                u, v = rng.sample(group, 2)
                g.add_edge(u, v)
    for eid in rng.sample(g.edge_ids(), min(g.m, rng.randint(0, 2))):
        g.add_edge(*g.endpoints(eid))  # parallel copy
    for eid in rng.sample(g.edge_ids(), min(g.m, rng.randint(0, 3))):
        g.remove_edge(eid)  # may split a group into two components
    return g


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_ball_resolver_matches_neighborhood_set(seed):
    """The resolver returns exactly ``neighborhood_set`` (same set, same
    iteration order) for sources in one component and spanning two,
    at radii from 0 to beyond every component's diameter."""
    rng = random.Random(seed)
    g = _multi_component_graph(rng)
    snapshot = snapshot_of(g)
    resolver = _BallResolver(snapshot)
    components = []
    seen = set()
    for vertex in g.vertices():
        if vertex not in seen:
            component = snapshot.neighborhood_set([vertex], None)
            seen |= component
            components.append(sorted(component))
    source_sets = []
    for component in components:
        source_sets.append([rng.choice(component)])
        source_sets.append(rng.sample(component, min(2, len(component))))
        source_sets.append(list(component))
    for _ in range(3):
        if len(components) >= 2:
            a, b = rng.sample(components, 2)
            source_sets.append([rng.choice(a), rng.choice(b)])
    for sources in source_sets:
        for radius in list(range(0, g.n + 2)) + [None]:
            expected = snapshot.neighborhood_set(sources, radius)
            got = resolver.ball(sources, radius)
            assert got == expected
            assert list(got) == list(expected)


def test_algorithm2_mixed_ball_regimes_match_bfs(monkeypatch):
    """One small dense component is short-circuited (2·ecc(root) ≤ R')
    and one long path falls back to BFS; the run equals a run whose
    balls all come from BFS."""
    g = add_parallel_copies(complete_graph(5), 2)  # alpha = 5
    path_start = g.n
    for _ in range(30):
        g.add_vertex()
    for v in range(path_start, g.n - 1):
        g.add_edge(v, v + 1)
    palettes = uniform_palette(g, range(8))

    def run():
        rc = RoundCounter()
        result = algorithm2(g, palettes, 0.5, 5, seed=21, rounds=rc)
        return result.colored, result.leftover, result.stats, rc.by_phase()

    regimes = []
    ball = _BallResolver.ball

    def spying_ball(self, sources, radius):
        found = ball(self, sources, radius)
        regimes.append(any(found is c for c in self._components.values()))
        return found

    monkeypatch.setattr(_BallResolver, "ball", spying_ball)
    resolved = run()
    assert True in regimes and False in regimes

    monkeypatch.setattr(
        _BallResolver, "ball",
        lambda self, sources, radius: self.snapshot.neighborhood_set(
            sources, radius
        ),
    )
    assert run() == resolved


# ----------------------------------------------------------------------
# Theorem 4.6 pipeline
# ----------------------------------------------------------------------


def test_fd_forest_union():
    g = union_of_random_forests(50, 3, seed=14)
    result = forest_decomposition_algorithm2(g, epsilon=0.9, alpha=3, seed=15)
    check_forest_decomposition(g, result.coloring)
    assert result.colors_used <= math.ceil((1 + 0.9) * 3)


def test_fd_line_multigraph():
    g = line_multigraph(30, 4)
    result = forest_decomposition_algorithm2(g, epsilon=0.75, alpha=4, seed=16)
    check_forest_decomposition(g, result.coloring)
    assert result.colors_used <= math.ceil((1 + 0.75) * 4)


def test_fd_grid():
    g = grid_graph(7, 7)
    alpha = exact_arboricity(g)
    result = forest_decomposition_algorithm2(g, epsilon=1.0, alpha=alpha, seed=17)
    check_forest_decomposition(g, result.coloring)
    assert result.colors_used <= math.ceil(2.0 * alpha)


def test_fd_computes_alpha_when_omitted():
    g = cycle_graph(12)
    result = forest_decomposition_algorithm2(g, epsilon=0.5, seed=18)
    assert result.alpha == 2
    check_forest_decomposition(g, result.coloring)


def test_fd_diameter_mode_strong():
    g = union_of_random_forests(60, 2, seed=19)
    result = forest_decomposition_algorithm2(
        g, epsilon=1.0, alpha=2, diameter_mode="strong", seed=20
    )
    check_forest_decomposition(g, result.coloring)
    # z = ceil(20 / (eps/6)) -> diameter <= 2(z-1); generous check that
    # the reduction actually ran.
    z = math.ceil(20.0 / (1.0 / 6.0))
    check_forest_diameter(g, result.coloring, 2 * (z - 1))


def test_fd_diameter_mode_safe():
    g = path_graph(120)
    result = forest_decomposition_algorithm2(
        g, epsilon=1.0, alpha=1, diameter_mode="safe", seed=21
    )
    check_forest_decomposition(g, result.coloring)
    n = g.n
    z = math.ceil(20.0 * math.log2(n) / (1.0 / 6.0))
    check_forest_diameter(g, result.coloring, 2 * (z - 1))


def test_fd_conditioned_sampling_rule():
    g = union_of_random_forests(40, 2, seed=22)
    result = forest_decomposition_algorithm2(
        g, epsilon=1.0, alpha=2, cut_rule="conditioned_sampling", seed=23,
        radius=5, search_radius=5,
    )
    check_forest_decomposition(g, result.coloring)


def test_fd_empty_graph():
    g = MultiGraph.with_vertices(3)
    result = forest_decomposition_algorithm2(g, 0.5)
    assert result.coloring == {}
    assert result.colors_used == 0


def test_fd_beats_barenboim_elkin():
    """The headline: (1+eps)alpha vs the (2+eps)alpha baseline."""
    import repro

    g = union_of_random_forests(60, 4, seed=24)
    ours = forest_decomposition_algorithm2(g, epsilon=0.5, alpha=4, seed=25)
    baseline_coloring, baseline_colors = repro.barenboim_elkin_forest_decomposition(
        g, epsilon=0.5
    )
    check_forest_decomposition(g, baseline_coloring)
    assert ours.colors_used < baseline_colors
    assert ours.colors_used <= math.ceil(1.5 * 4)
