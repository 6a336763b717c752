"""Tests for diameter reduction (Proposition 2.4 / Corollary 2.5)."""

import pytest

from repro.errors import DecompositionError
from repro.graph.generators import path_graph, union_of_random_forests
from repro.core import depth_cut, random_sparse_cut, reduce_diameter
from repro.decomposition import acyclic_orientation, h_partition
from repro.nashwilliams import exact_pseudoarboricity
from repro.verify import (
    check_forest_decomposition,
    forest_diameter_of_coloring,
)


def long_path_coloring(n=80):
    g = path_graph(n)
    return g, {eid: 0 for eid in g.edge_ids()}


def test_depth_cut_bounds_diameter():
    g, coloring = long_path_coloring()
    result = depth_cut(g, coloring, z=5, seed=1)
    assert forest_diameter_of_coloring(g, result.kept) <= result.target_diameter
    assert result.target_diameter == 8
    # Deletions + kept partition the original edge set.
    assert len(result.kept) + len(result.deleted) == g.m


def test_depth_cut_records_tails():
    g, coloring = long_path_coloring(30)
    result = depth_cut(g, coloring, z=4, seed=2)
    for eid in result.deleted:
        assert result.deletion_tail[eid] in g.endpoints(eid)
    assert result.max_deletion_out_degree() <= 1  # path: one parent edge each


def test_depth_cut_z_one_deletes_everything():
    g, coloring = long_path_coloring(10)
    result = depth_cut(g, coloring, z=1, seed=3)
    assert not result.kept
    assert len(result.deleted) == g.m


def test_depth_cut_invalid_z():
    g, coloring = long_path_coloring(5)
    with pytest.raises(DecompositionError):
        depth_cut(g, coloring, z=0)


def test_depth_cut_multicolor_load():
    """Per-vertex deletion load ~ (#colors)/z across many colors."""
    g = union_of_random_forests(60, 4, seed=4)
    from repro.nashwilliams import exact_forest_decomposition

    coloring = exact_forest_decomposition(g)
    result = depth_cut(g, coloring, z=8, seed=5)
    check_forest_decomposition(g, result.kept, partial=True)
    assert forest_diameter_of_coloring(g, result.kept) <= 14
    # 4 colors, z=8: expected load 0.5; assert a generous whp-style cap.
    assert result.max_deletion_out_degree() <= 4


def test_reduce_diameter_strong_mode():
    g, coloring = long_path_coloring(100)
    result = reduce_diameter(g, coloring, epsilon=0.5, alpha=1, mode="strong", seed=6)
    # z = ceil(20/eps) = 40 -> diameter <= 78.
    assert forest_diameter_of_coloring(g, result.kept) <= 78


def test_reduce_diameter_safe_mode():
    g, coloring = long_path_coloring(100)
    result = reduce_diameter(g, coloring, epsilon=0.5, alpha=1, mode="safe", seed=7)
    assert forest_diameter_of_coloring(g, result.kept) <= result.target_diameter


def test_reduce_diameter_auto_and_bad_mode():
    g, coloring = long_path_coloring(20)
    reduce_diameter(g, coloring, 0.5, alpha=100, mode="auto", seed=8)
    with pytest.raises(DecompositionError):
        reduce_diameter(g, coloring, 0.5, alpha=1, mode="bogus")


def test_random_sparse_cut():
    g = union_of_random_forests(50, 3, seed=9)
    from repro.nashwilliams import exact_forest_decomposition

    coloring = exact_forest_decomposition(g)
    pseudo = exact_pseudoarboricity(g)
    partition = h_partition(g, 3 * pseudo)
    orientation = acyclic_orientation(g, partition)
    target = 12
    result = random_sparse_cut(
        g, coloring, epsilon=1.0, alpha=3, orientation=orientation,
        target_diameter=target, seed=10,
    )
    assert forest_diameter_of_coloring(g, result.kept) <= target
    check_forest_decomposition(g, result.kept, partial=True)
    assert len(result.kept) + len(result.deleted) == g.m


def test_deleted_edges_form_sparse_graph():
    """Deleted edges' pseudo-arboricity is bounded by the recorded
    out-degree (the orientation witness)."""
    g = union_of_random_forests(40, 3, seed=11)
    from repro.nashwilliams import exact_forest_decomposition

    coloring = exact_forest_decomposition(g)
    result = depth_cut(g, coloring, z=6, seed=12)
    if result.deleted:
        bound = max(1, result.max_deletion_out_degree())
        from repro.verify import pseudoarboricity_upper_bound_check

        pseudoarboricity_upper_bound_check(g, result.deleted, bound)
