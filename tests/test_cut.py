"""Tests for CUT (Theorem 4.2) and its load accounting."""

import random

import pytest

from repro.errors import DecompositionError
from repro.graph import neighborhood
from repro.graph.generators import (
    line_multigraph,
    path_graph,
    uniform_palette,
    union_of_random_forests,
)
from repro.core import CutController, PartialListForestDecomposition, is_cut_good
from repro.core.augmenting import augment_edge
from repro.decomposition import acyclic_orientation, h_partition
from repro.nashwilliams import exact_pseudoarboricity
from repro.verify import pseudoarboricity_upper_bound_check


def colored_state(graph, num_colors, seed=0):
    state = PartialListForestDecomposition(
        graph, uniform_palette(graph, range(num_colors))
    )
    order = graph.edge_ids()
    random.Random(seed).shuffle(order)
    for eid in order:
        augment_edge(state, eid)
    return state


def test_depth_residue_cut_is_good_on_long_path():
    g = path_graph(60)
    state = colored_state(g, 1)
    controller = CutController(state, epsilon=0.5, alpha=1, seed=1)
    core = neighborhood(g, [0], 3)
    removed = controller.cut(core, radius=8)
    assert removed  # the single color-0 path must be severed
    assert is_cut_good(state, core, 8)
    # Removed edges only from the permitted ring E(N^R) \ E(C').
    for eid in removed:
        u, v = g.endpoints(eid)
        assert not (u in core and v in core)


def test_depth_residue_cut_multicolor():
    g = line_multigraph(40, 2)  # alpha 2; two colors after coloring
    state = colored_state(g, 2, seed=3)
    controller = CutController(state, epsilon=0.5, alpha=2, seed=2)
    core = {0, 1}
    controller.cut(core, radius=6)
    assert is_cut_good(state, core, 6)


def test_cut_leftover_orientation_recorded():
    g = path_graph(50)
    state = colored_state(g, 1)
    controller = CutController(state, epsilon=1.0, alpha=1, seed=4)
    removed = controller.cut({0}, radius=6)
    orientation = state.leftover_orientation()
    for eid in removed:
        assert eid in orientation
        assert orientation[eid] in g.endpoints(eid)


def test_cut_load_bound_forest_union():
    """Leftover pseudo-arboricity stays within the budget on a real
    multi-cluster run (Theorem 4.2(2) accounting)."""
    g = union_of_random_forests(80, 3, seed=5)
    state = colored_state(g, 4, seed=6)
    controller = CutController(state, epsilon=1.0, alpha=3, seed=7)
    rng = random.Random(8)
    for _ in range(6):
        center = rng.randrange(g.n)
        core = neighborhood(g, [center], 2)
        controller.cut(core, radius=5)
    leftover = state.leftover_edges()
    if leftover:
        # Budget ceil(eps * alpha) = 3 per vertex; verify exactly.
        pseudoarboricity_upper_bound_check(g, leftover, 3)


def test_unknown_rule_rejected():
    g = path_graph(4)
    state = colored_state(g, 1)
    with pytest.raises(DecompositionError):
        CutController(state, 0.5, 1, rule="bogus")


def test_conditioned_sampling_requires_orientation():
    g = path_graph(4)
    state = colored_state(g, 1)
    with pytest.raises(DecompositionError):
        CutController(state, 0.5, 1, rule="conditioned_sampling")


def test_conditioned_sampling_cut():
    g = union_of_random_forests(60, 2, seed=9)
    pseudo = exact_pseudoarboricity(g)
    partition = h_partition(g, 3 * pseudo)
    orientation = acyclic_orientation(g, partition)
    state = colored_state(g, 3, seed=10)
    controller = CutController(
        state,
        epsilon=1.0,
        alpha=2,
        rule="conditioned_sampling",
        orientation=orientation,
        probability=0.5,
        seed=11,
    )
    core = neighborhood(g, [0], 2)
    controller.cut(core, radius=5)
    # The repair pass guarantees goodness deterministically.
    assert is_cut_good(state, core, 5)
    # Loads never exceed the budget by construction.
    assert controller.stats.max_load <= controller.load_budget + 5  # + repair


def test_cut_respects_budget_under_repeated_invocations():
    g = union_of_random_forests(50, 2, seed=12)
    pseudo = exact_pseudoarboricity(g)
    partition = h_partition(g, 3 * pseudo)
    orientation = acyclic_orientation(g, partition)
    state = colored_state(g, 3, seed=13)
    controller = CutController(
        state,
        epsilon=0.5,
        alpha=2,
        rule="conditioned_sampling",
        orientation=orientation,
        probability=0.3,
        seed=14,
    )
    rng = random.Random(15)
    for _ in range(8):
        core = neighborhood(g, [rng.randrange(g.n)], 1)
        controller.cut(core, radius=4)
    # Sampling loads (excluding repair) stay within ceil(eps*alpha)=1 each;
    # the conditioned rule skips saturated vertices.
    assert controller.stats.invocations == 8


def test_is_cut_good_detects_escape():
    g = path_graph(30)
    state = colored_state(g, 1)  # one long monochromatic path
    assert not is_cut_good(state, {0}, 5)


def test_cut_stats_accumulate():
    g = path_graph(40)
    state = colored_state(g, 1)
    controller = CutController(state, epsilon=0.5, alpha=1, seed=16)
    controller.cut({0}, radius=6)
    controller.cut({20}, radius=6)
    assert controller.stats.invocations == 2
    assert controller.stats.removed_edges == len(state.leftover_edges())
