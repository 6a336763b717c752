"""Property tests: CUT goodness and diameter reduction invariants.

The depth-residue CUT must be good *deterministically* (Theorem 4.2(2)
holds with probability one for disconnection; only the load bound is
probabilistic), and depth_cut must respect its diameter target on any
forest decomposition — these are the load-bearing safety properties of
Algorithm 2, so they get adversarially random inputs.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    CutController,
    PartialListForestDecomposition,
    depth_cut,
    is_cut_good,
)
from repro.core.augmenting import augment_edge
from repro.graph import neighborhood
from repro.graph.generators import uniform_palette, union_of_random_forests
from repro.nashwilliams import exact_forest_decomposition
from repro.verify import (
    check_forest_decomposition,
    forest_diameter_of_coloring,
)


def build_colored_state(seed):
    rng = random.Random(seed)
    n = rng.randint(10, 40)
    k = rng.randint(1, 3)
    graph = union_of_random_forests(n, k, seed=seed)
    state = PartialListForestDecomposition(
        graph, uniform_palette(graph, range(k + 1))
    )
    order = graph.edge_ids()
    rng.shuffle(order)
    for eid in order:
        augment_edge(state, eid)
    return rng, graph, state, k


@settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.integers(0, 1_000_000))
def test_depth_residue_cut_always_good(seed):
    rng, graph, state, k = build_colored_state(seed)
    controller = CutController(
        state, epsilon=1.0, alpha=k, rule="depth_residue", seed=seed
    )
    for _ in range(rng.randint(1, 4)):
        center = rng.randrange(graph.n)
        core_radius = rng.randint(0, 2)
        radius = rng.randint(2, 8)
        core = neighborhood(graph, [center], core_radius)
        removed = controller.cut(core, radius)
        # Goodness holds deterministically for depth-residue.
        assert is_cut_good(state, core, radius)
        # Removals come only from the permitted ring.
        for eid in removed:
            u, v = graph.endpoints(eid)
            assert not (u in core and v in core)
    state.assert_valid()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1_000_000), st.integers(2, 12))
def test_depth_cut_diameter_contract(seed, z):
    rng = random.Random(seed)
    n = rng.randint(8, 40)
    k = rng.randint(1, 3)
    graph = union_of_random_forests(n, k, seed=seed)
    coloring = exact_forest_decomposition(graph)
    result = depth_cut(graph, coloring, z, seed=seed)
    # Contract 1: the kept coloring is a valid partial FD.
    check_forest_decomposition(graph, result.kept, partial=True)
    # Contract 2: diameter within the advertised target.
    assert (
        forest_diameter_of_coloring(graph, result.kept)
        <= result.target_diameter
    )
    # Contract 3: kept + deleted partition the edges.
    assert len(result.kept) + len(result.deleted) == graph.m
    # Contract 4: every deletion is charged to one of its endpoints.
    for eid in result.deleted:
        assert result.deletion_tail[eid] in graph.endpoints(eid)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 1_000_000))
def test_cut_then_recolor_roundtrip(seed):
    """After CUT removes edges, the leftover can always be recolored
    with fresh colors and merged into a valid full decomposition."""
    rng, graph, state, k = build_colored_state(seed)
    controller = CutController(
        state, epsilon=1.0, alpha=k, rule="depth_residue", seed=seed
    )
    center = rng.randrange(graph.n)
    core = neighborhood(graph, [center], 1)
    controller.cut(core, radius=4)

    coloring = dict(state.colored_edges())
    leftover = state.leftover_edges()
    if leftover:
        sub = graph.edge_subgraph(leftover)
        extra = exact_forest_decomposition(sub)
        base = k + 2  # fresh color namespace
        for eid, c in extra.items():
            coloring[eid] = base + c
    check_forest_decomposition(graph, coloring)
