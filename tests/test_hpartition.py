"""Tests for Theorem 2.1: H-partition and its corollaries."""

import pytest

from repro.errors import DecompositionError, PaletteError
from repro.graph import is_forest
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    line_multigraph,
    random_palettes,
    star_graph,
    uniform_palette,
    union_of_random_forests,
)
from repro.local import RoundCounter, run_distributed_hpartition
from repro.decomposition import (
    acyclic_orientation,
    default_threshold,
    h_partition,
    list_forest_decomposition_via_hpartition,
    rooted_forests_from_orientation,
    star_forest_decomposition_via_hpartition,
)
from repro.nashwilliams import exact_pseudoarboricity
from repro.verify import (
    check_forest_decomposition,
    check_hpartition,
    check_orientation,
    check_palettes_respected,
    check_star_forest_decomposition,
)


def make_workload(seed=0):
    g = union_of_random_forests(40, 3, seed=seed)
    pseudo = exact_pseudoarboricity(g)
    t = default_threshold(pseudo, 0.5)
    return g, pseudo, t


def test_h_partition_property():
    g, _pseudo, t = make_workload()
    partition = h_partition(g, t)
    check_hpartition(g, partition.classes, t)
    assert partition.num_classes >= 1


def test_h_partition_matches_distributed():
    """Centralized peeling produces the same classes as the genuine
    message-passing node program."""
    g, _pseudo, t = make_workload(seed=5)
    central = h_partition(g, t)
    distributed, _rounds = run_distributed_hpartition(g, t)
    assert central.classes == distributed


def test_h_partition_charges_rounds():
    g, _pseudo, t = make_workload()
    rc = RoundCounter()
    partition = h_partition(g, t, rounds=rc)
    assert rc.total == partition.num_classes  # one round per wave


def test_h_partition_stalls_on_small_threshold():
    g = complete_graph(8)  # min degree 7
    with pytest.raises(DecompositionError):
        h_partition(g, 2)


def test_h_partition_members():
    g = star_graph(5)
    partition = h_partition(g, 2)
    assert sorted(partition.members(1)) == [1, 2, 3, 4]
    assert partition.members(2) == [0]


def test_acyclic_orientation():
    g, _pseudo, t = make_workload(seed=1)
    partition = h_partition(g, t)
    orientation = acyclic_orientation(g, partition)
    check_orientation(g, orientation, t, require_acyclic=True)


def test_orientation_out_degree_tight_on_line_multigraph():
    g = line_multigraph(6, 2)  # alpha* = 2
    t = default_threshold(2, 0.5)
    partition = h_partition(g, t)
    orientation = acyclic_orientation(g, partition)
    check_orientation(g, orientation, t, require_acyclic=True)


def test_rooted_forests_from_orientation():
    g, _pseudo, t = make_workload(seed=2)
    partition = h_partition(g, t)
    orientation = acyclic_orientation(g, partition)
    forests = rooted_forests_from_orientation(g, orientation)
    assert sum(len(f) for f in forests) == g.m
    assert len(forests) <= t
    for eids in forests:
        assert is_forest(g, eids)


def test_star_forest_decomposition_thm213():
    g, _pseudo, t = make_workload(seed=3)
    partition = h_partition(g, t)
    coloring = star_forest_decomposition_via_hpartition(g, partition)
    # At most 3t star forests (Theorem 2.1(3)).
    count = check_star_forest_decomposition(g, coloring, max_colors=3 * t)
    assert count >= 1


def test_star_forest_decomposition_on_multigraph():
    g = line_multigraph(8, 3)
    t = default_threshold(exact_pseudoarboricity(g), 0.5)
    partition = h_partition(g, t)
    coloring = star_forest_decomposition_via_hpartition(g, partition)
    check_star_forest_decomposition(g, coloring, max_colors=3 * t)


def test_list_forest_decomposition_thm214():
    g, _pseudo, t = make_workload(seed=4)
    partition = h_partition(g, t)
    palettes = random_palettes(g, t, 3 * t, seed=9)
    coloring = list_forest_decomposition_via_hpartition(g, partition, palettes)
    check_forest_decomposition(g, coloring)
    check_palettes_respected(coloring, palettes)


def test_list_forest_decomposition_uniform_palette():
    g = cycle_graph(10)
    t = default_threshold(1, 0.5)  # alpha* of a cycle is 1 -> t = 2
    partition = h_partition(g, t)
    palettes = uniform_palette(g, range(t))
    coloring = list_forest_decomposition_via_hpartition(g, partition, palettes)
    count = check_forest_decomposition(g, coloring, max_colors=t)
    assert count <= t


def test_list_forest_decomposition_small_palette_fails():
    g = complete_graph(6)
    partition = h_partition(g, 5)
    palettes = uniform_palette(g, [0])  # hopeless: out-degrees up to 5
    with pytest.raises(PaletteError):
        list_forest_decomposition_via_hpartition(g, partition, palettes)


def test_default_threshold():
    assert default_threshold(4, 0.5) == 10
    assert default_threshold(1, 0.01) == 2


def test_h_partition_class_count_logarithmic():
    for n in (50, 200):
        g = union_of_random_forests(n, 2, seed=n)
        partition = h_partition(g, default_threshold(2, 1.0))
        # O(log n / eps) classes; very generous empirical cap.
        assert partition.num_classes <= 30
