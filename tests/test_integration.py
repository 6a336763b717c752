"""End-to-end integration tests across modules at moderate scale.

These exercise whole pipelines on graphs of a few hundred vertices and
cross-check different algorithms against each other (exact vs
distributed, list vs ordinary, decomposition vs orientation).
"""

import math

import repro
from repro.core import (
    forest_decomposition_algorithm2,
    list_forest_decomposition,
    star_forest_decomposition_amr,
)
from repro.graph.generators import (
    erdos_renyi,
    grid_graph,
    line_multigraph,
    preferential_attachment,
    random_palettes,
    union_of_random_forests,
    wheel_graph,
)
from repro.local import RoundCounter
from repro.nashwilliams import exact_arboricity, exact_forest_partition
from repro.verify import (
    check_forest_decomposition,
    check_palettes_respected,
    check_star_forest_decomposition,
    forest_diameter_of_coloring,
)


def test_fd_at_n300():
    g = union_of_random_forests(300, 3, seed=1)
    result = forest_decomposition_algorithm2(
        g, epsilon=1.0, alpha=3, seed=2, radius=8, search_radius=8
    )
    check_forest_decomposition(g, result.coloring)
    assert result.colors_used <= 6


def test_fd_many_graph_families():
    for name, graph in (
        ("grid", grid_graph(9, 9)),
        ("wheel", wheel_graph(40)),
        ("er", erdos_renyi(60, 0.1, seed=3)),
        ("pa", preferential_attachment(80, 2, seed=4)),
        ("line", line_multigraph(40, 2)),
    ):
        alpha = exact_arboricity(graph)
        if alpha == 0:
            continue
        result = forest_decomposition_algorithm2(
            graph, epsilon=1.0, alpha=alpha, seed=5
        )
        check_forest_decomposition(graph, result.coloring)
        assert result.colors_used <= math.ceil(2.0 * alpha), name


def test_exact_vs_algorithm2_color_floor():
    """Algorithm 2 can never use fewer colors than the exact optimum."""
    for seed in range(3):
        g = union_of_random_forests(50, 4, seed=seed)
        exact = exact_forest_partition(g).num_forests
        ours = forest_decomposition_algorithm2(
            g, epsilon=0.5, alpha=4, seed=seed
        ).colors_used
        assert exact <= ours <= math.ceil(1.5 * 4)


def test_orientation_consistency_chain():
    """FD -> orientation -> pseudoforest decomposition chain validates."""
    g = union_of_random_forests(120, 3, seed=7)
    coloring, bound = repro.pseudoforest_decomposition(
        g, epsilon=0.5, alpha=3, seed=8
    )
    from repro.verify import check_pseudoforest_decomposition

    check_pseudoforest_decomposition(g, coloring, max_colors=bound)


def test_lfd_vs_fd_color_usage():
    """With uniform palettes, LFD distinct-color usage is bounded by the
    palette size, like ordinary FD."""
    g = union_of_random_forests(60, 3, seed=9)
    from repro.graph.generators import uniform_palette

    size = 12
    palettes = uniform_palette(g, range(size))
    result = list_forest_decomposition(g, palettes, 1.0, alpha=3, seed=10)
    check_forest_decomposition(g, result.coloring)
    assert len(set(result.coloring.values())) <= size


def test_sfd_stars_also_valid_forests():
    g = union_of_random_forests(80, 4, seed=11, simple=True)
    result = star_forest_decomposition_amr(g, 0.4, alpha=4, seed=12)
    # A star forest decomposition is a fortiori a forest decomposition.
    check_star_forest_decomposition(g, result.coloring)
    check_forest_decomposition(g, result.coloring)


def test_round_accounting_consistency():
    """Total rounds equal the sum over phases."""
    g = union_of_random_forests(40, 2, seed=13)
    rc = RoundCounter()
    forest_decomposition_algorithm2(g, 1.0, alpha=2, seed=14, rounds=rc)
    assert rc.total == sum(rc.by_phase().values())


def test_determinism_across_runs():
    g = union_of_random_forests(60, 3, seed=15)
    a = forest_decomposition_algorithm2(g, 0.5, alpha=3, seed=99).coloring
    b = forest_decomposition_algorithm2(g, 0.5, alpha=3, seed=99).coloring
    assert a == b


def test_different_seeds_both_valid():
    g = union_of_random_forests(60, 3, seed=16)
    for seed in (1, 2, 3):
        result = forest_decomposition_algorithm2(g, 0.5, alpha=3, seed=seed)
        check_forest_decomposition(g, result.coloring)


def test_diameter_bounded_run_at_scale():
    g = line_multigraph(150, 3)
    result = forest_decomposition_algorithm2(
        g, epsilon=1.0, alpha=3, diameter_mode="strong", seed=17
    )
    check_forest_decomposition(g, result.coloring)
    z = math.ceil(20.0 / (1.0 / 6.0))
    assert forest_diameter_of_coloring(g, result.coloring) <= 2 * (z - 1)


def test_alpha_overestimate_still_valid():
    """Passing an overestimate of alpha trades colors for ease but must
    stay valid."""
    g = union_of_random_forests(40, 2, seed=18)
    result = forest_decomposition_algorithm2(g, 0.5, alpha=4, seed=19)
    check_forest_decomposition(g, result.coloring)


def test_dense_er_graph_end_to_end():
    g = erdos_renyi(40, 0.5, seed=20)
    alpha = exact_arboricity(g)
    result = forest_decomposition_algorithm2(g, 0.5, alpha=alpha, seed=21)
    check_forest_decomposition(g, result.coloring)
    assert result.colors_used <= math.ceil(1.5 * alpha)


def test_list_palettes_at_scale():
    g = union_of_random_forests(100, 3, seed=22)
    palettes = random_palettes(g, 12, 36, seed=23)
    result = list_forest_decomposition(g, palettes, 1.0, alpha=3, seed=24)
    check_forest_decomposition(g, result.coloring)
    check_palettes_respected(result.coloring, palettes)
