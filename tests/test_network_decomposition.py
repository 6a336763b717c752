"""Tests for network decomposition (full and MPX partial)."""

import math

import pytest

from repro.errors import DecompositionError
from repro.graph import MultiGraph, bfs_distances, power_graph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    union_of_random_forests,
)
from repro.local import RoundCounter
from repro.decomposition import (
    cut_edges_of_clustering,
    network_decomposition,
    partial_network_decomposition,
    validate_network_decomposition,
)


def diameter_cap(n):
    return 2 * max(1, math.ceil(math.log2(n + 1))) + 2


def class_cap(n):
    return 2 * max(1, math.ceil(math.log2(n + 1))) + 4


def test_nd_path():
    g = path_graph(50)
    nd = network_decomposition(g)
    validate_network_decomposition(g, nd, diameter_cap(50), class_cap(50))


def test_nd_grid():
    g = grid_graph(8, 8)
    nd = network_decomposition(g)
    validate_network_decomposition(g, nd, diameter_cap(64), class_cap(64))


def test_nd_forest_union():
    g = union_of_random_forests(120, 3, seed=2)
    nd = network_decomposition(g)
    validate_network_decomposition(g, nd, diameter_cap(120), class_cap(120))


def test_nd_complete_graph_single_cluster():
    g = complete_graph(12)
    nd = network_decomposition(g)
    validate_network_decomposition(g, nd, diameter_cap(12), class_cap(12))
    # K_n fits in one ball: one class, one cluster.
    assert nd.num_classes == 1
    assert len(nd.classes[0]) == 1


def test_nd_empty_graph():
    g = MultiGraph()
    nd = network_decomposition(g)
    assert nd.num_classes == 0


def test_nd_isolated_vertices():
    g = MultiGraph.with_vertices(5)
    nd = network_decomposition(g)
    validate_network_decomposition(g, nd, 0, class_cap(5))
    assert nd.num_classes == 1  # all isolated vertices are singleton balls


def test_nd_on_power_graph():
    g = path_graph(40)
    g2 = power_graph(g, 2)
    nd = network_decomposition(g2, radius_cost=2)
    validate_network_decomposition(g2, nd, diameter_cap(40), class_cap(40))


def test_nd_round_charging():
    g = path_graph(30)
    rc = RoundCounter()
    network_decomposition(g, rounds=rc, radius_cost=3)
    base = RoundCounter()
    network_decomposition(g, rounds=base, radius_cost=1)
    assert rc.total == 3 * base.total > 0


def test_nd_all_clusters_iteration():
    g = cycle_graph(20)
    nd = network_decomposition(g)
    clusters = nd.all_clusters()
    total = sum(len(cluster) for _z, cluster in clusters)
    assert total == 20


def test_nd_vertex_classes():
    g = path_graph(10)
    nd = network_decomposition(g)
    classes = nd.vertex_classes()
    assert set(classes.keys()) == set(g.vertices())


# ----------------------------------------------------------------------
# MPX partial network decomposition
# ----------------------------------------------------------------------


def test_mpx_covers_all_vertices():
    g = grid_graph(6, 6)
    heads = partial_network_decomposition(g, beta=0.3, seed=1)
    assert set(heads.keys()) == set(g.vertices())


def test_mpx_clusters_connected_and_bounded():
    g = grid_graph(7, 7)
    heads = partial_network_decomposition(g, beta=0.5, seed=3)
    by_head = {}
    for v, h in heads.items():
        by_head.setdefault(h, []).append(v)
    radius_cap = math.ceil(math.log(g.n) / 0.5) * 3 + 3  # generous whp cap
    for head, members in by_head.items():
        dist = bfs_distances(g, [head])
        for v in members:
            assert v in dist and dist[v] <= radius_cap


def test_mpx_cut_probability():
    """Average edge-cut fraction over seeds should be near beta or less."""
    g = grid_graph(10, 10)
    beta = 0.2
    fractions = []
    for seed in range(10):
        heads = partial_network_decomposition(g, beta=beta, seed=seed)
        cut = cut_edges_of_clustering(g, heads)
        fractions.append(len(cut) / g.m)
    average = sum(fractions) / len(fractions)
    assert average <= 2.0 * beta  # beta bound with generous slack


def test_mpx_beta_validation():
    g = path_graph(4)
    with pytest.raises(DecompositionError):
        partial_network_decomposition(g, beta=0.0)
    with pytest.raises(DecompositionError):
        partial_network_decomposition(g, beta=1.5)


def test_mpx_empty_graph():
    assert partial_network_decomposition(MultiGraph(), beta=0.5) == {}


def test_mpx_deterministic_with_seed():
    g = erdos_renyi(30, 0.2, seed=4)
    a = partial_network_decomposition(g, beta=0.4, seed=11)
    b = partial_network_decomposition(g, beta=0.4, seed=11)
    assert a == b


# ----------------------------------------------------------------------
# CSR backend
# ----------------------------------------------------------------------


def test_nd_csr_backend_validates():
    g = grid_graph(8, 8)
    nd = network_decomposition(g, backend="csr")
    validate_network_decomposition(g, nd, diameter_cap(64), class_cap(64))
    assert nd.classes == network_decomposition(g, backend="dict").classes


def test_nd_on_csr_power_graph():
    """A CSR power graph feeds the ball carving end to end, and the
    validator accepts the snapshot as the host graph."""
    from repro.graph.csr import snapshot_of

    g = path_graph(40)
    g2 = power_graph(snapshot_of(g), 2)
    nd = network_decomposition(g2, radius_cost=2)
    validate_network_decomposition(g2, nd, diameter_cap(40), class_cap(40))


def test_nd_rejects_unknown_backend():
    with pytest.raises(DecompositionError):
        network_decomposition(path_graph(4), backend="dcit")


def test_mpx_csr_backend_matches():
    g = erdos_renyi(30, 0.2, seed=4)
    a = partial_network_decomposition(g, beta=0.4, seed=11, backend="dict")
    b = partial_network_decomposition(g, beta=0.4, seed=11, backend="csr")
    assert a == b
    assert cut_edges_of_clustering(g, a, backend="csr") == cut_edges_of_clustering(
        g, a, backend="dict"
    )


# ----------------------------------------------------------------------
# Simultaneous carve rule
# ----------------------------------------------------------------------


def _simultaneous_caps(n):
    """The simultaneous carve's proven bounds: strong diameter <= 2L,
    classes <= 2L + 4 with L = ceil(log2(n + 1))."""
    level = max(1, math.ceil(math.log2(n + 1)))
    return 2 * level, 2 * level + 4


@pytest.mark.parametrize("make", [
    lambda: path_graph(50),
    lambda: grid_graph(8, 8),
    lambda: union_of_random_forests(120, 3, seed=2),
    lambda: complete_graph(12),
    lambda: erdos_renyi(60, 0.08, seed=9),
])
def test_nd_simultaneous_validates(make):
    from repro.verify import check_network_decomposition

    g = make()
    max_diameter, max_classes = _simultaneous_caps(g.n)
    ref = network_decomposition(g, carve_rule="simultaneous", backend="dict")
    csr = network_decomposition(g, carve_rule="simultaneous", backend="csr")
    assert csr.classes == ref.classes
    validate_network_decomposition(g, ref, max_diameter, max_classes)
    # The independent checker (plain BFS, none of the carve kernels)
    # proves the same (D, chi) bounds.
    worst, chi = check_network_decomposition(
        g, ref.classes, max_diameter=max_diameter, max_classes=max_classes
    )
    assert worst <= max_diameter and chi == ref.num_classes


def test_nd_simultaneous_complete_graph_single_class():
    g = complete_graph(12)
    nd = network_decomposition(g, carve_rule="simultaneous")
    assert nd.num_classes == 1
    assert len(nd.classes[0]) == 1


def test_nd_simultaneous_isolated_vertices():
    g = MultiGraph.with_vertices(5)
    nd = network_decomposition(g, carve_rule="simultaneous")
    validate_network_decomposition(g, nd, 0, class_cap(5))
    assert nd.num_classes == 1  # every isolated vertex keeps its own ball


def test_nd_simultaneous_empty_graph():
    nd = network_decomposition(MultiGraph(), carve_rule="simultaneous")
    assert nd.num_classes == 0


def test_nd_rejects_unknown_carve_rule():
    with pytest.raises(DecompositionError, match="carve_rule"):
        network_decomposition(path_graph(4), carve_rule="doubing")


def test_nd_simultaneous_on_power_graph():
    g = path_graph(40)
    g2 = power_graph(g, 2)
    max_diameter, max_classes = _simultaneous_caps(40)
    nd = network_decomposition(g2, radius_cost=2, carve_rule="simultaneous")
    validate_network_decomposition(g2, nd, max_diameter, max_classes)


# ----------------------------------------------------------------------
# Regressions: cut-edge KeyError, convergence-guard off-by-one
# ----------------------------------------------------------------------


def test_cut_edges_missing_head_raises():
    """A clustering that misses a vertex raises DecompositionError
    naming it on both backends (used to leak a bare KeyError)."""
    g = path_graph(5)
    heads = {v: 0 for v in g.vertices()}
    del heads[3]
    for backend in ("dict", "csr"):
        with pytest.raises(DecompositionError, match="vertex 3"):
            cut_edges_of_clustering(g, heads, backend=backend)


def test_nd_guard_counts_current_class(monkeypatch):
    """The convergence guard aborts after at most ``guard`` classes —
    not guard + 1 (the historical ``>`` comparison let one extra class
    through before raising)."""
    import importlib

    import numpy as np

    nd_module = importlib.import_module(
        "repro.decomposition.network_decomposition"
    )
    g = path_graph(40)
    guard = class_cap(40)  # the module's guard uses the same formula

    calls = {"dict": 0, "csr": 0}

    def singleton_ball(graph, center, allowed):
        calls["dict"] += 1
        return {center}, set(allowed) - {center}

    monkeypatch.setattr(nd_module, "_grow_doubling_ball", singleton_ball)
    with pytest.raises(DecompositionError, match="converge"):
        network_decomposition(g, backend="dict")
    assert calls["dict"] == guard  # one singleton cluster per class

    def singleton_ball_csr(
        snapshot, seed_index, unvisited, stamp, token, scratch
    ):
        calls["csr"] += 1
        others = np.flatnonzero(unvisited)
        return (
            np.array([seed_index], dtype=np.int64),
            others[others != seed_index],
        )

    monkeypatch.setattr(nd_module, "_grow_doubling_ball_csr", singleton_ball_csr)
    with pytest.raises(DecompositionError, match="converge"):
        network_decomposition(g, backend="csr")
    assert calls["csr"] == guard
