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

from reference import network_decomposition as ref_nd
from reference.traversal import power_graph as reference_power_graph


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
# Kernel carve against the dict reference
# ----------------------------------------------------------------------


def test_nd_csr_backend_validates():
    g = grid_graph(8, 8)
    nd = network_decomposition(g)
    validate_network_decomposition(g, nd, diameter_cap(64), class_cap(64))
    assert nd.classes == ref_nd.network_decomposition(g).classes


def test_nd_on_csr_power_graph():
    """A CSR power graph feeds the ball carving end to end, and the
    validator accepts the snapshot as the host graph."""
    from repro.graph.csr import snapshot_of

    g = path_graph(40)
    g2 = power_graph(snapshot_of(g), 2)
    nd = network_decomposition(g2, radius_cost=2)
    validate_network_decomposition(g2, nd, diameter_cap(40), class_cap(40))


def test_nd_rejects_unknown_backend():
    """The carves have one substrate: a ``backend`` keyword is a
    ``TypeError`` on both decompositions."""
    with pytest.raises(TypeError):
        network_decomposition(path_graph(4), backend="dict")
    with pytest.raises(TypeError):
        partial_network_decomposition(path_graph(4), 0.5, backend="dict")


def test_mpx_csr_backend_matches():
    g = erdos_renyi(30, 0.2, seed=4)
    a = ref_nd.partial_network_decomposition(g, beta=0.4, seed=11)
    b = partial_network_decomposition(g, beta=0.4, seed=11)
    assert a == b
    assert cut_edges_of_clustering(g, a) == ref_nd.cut_edges_of_clustering(
        g, a
    )


# ----------------------------------------------------------------------
# Regressions: cut-edge KeyError, convergence-guard off-by-one
# ----------------------------------------------------------------------


def test_cut_edges_missing_head_raises():
    """A clustering that misses a vertex raises DecompositionError
    naming it, in the kernel and the reference (used to leak a bare
    KeyError)."""
    g = path_graph(5)
    heads = {v: 0 for v in g.vertices()}
    del heads[3]
    for cut_edges in (cut_edges_of_clustering, ref_nd.cut_edges_of_clustering):
        with pytest.raises(DecompositionError, match="vertex 3"):
            cut_edges(g, heads)


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

    monkeypatch.setattr(ref_nd, "grow_doubling_ball", singleton_ball)
    with pytest.raises(DecompositionError, match="converge"):
        ref_nd.network_decomposition(g)
    assert calls["dict"] == guard  # one singleton cluster per class

    def singleton_ball_csr(reach, seed_index, unvisited, stamp, token):
        calls["csr"] += 1
        others = np.flatnonzero(unvisited)
        return (
            np.array([seed_index], dtype=np.int64),
            others[others != seed_index],
        )

    monkeypatch.setattr(nd_module, "_grow_doubling_ball_csr", singleton_ball_csr)
    with pytest.raises(DecompositionError, match="converge"):
        network_decomposition(g)
    assert calls["csr"] == guard


# ----------------------------------------------------------------------
# Implicit power-graph carve (power=k): G^k is carved on G itself
# ----------------------------------------------------------------------


def _with_small_components(g):
    """``g`` plus an isolated vertex and a 2-vertex component."""
    g = g.copy()
    g.add_vertex()
    a, b = g.add_vertex(), g.add_vertex()
    g.add_edge(a, b)
    return g


_STRUCTURED = {
    "path": lambda: _with_small_components(path_graph(40)),
    "cycle": lambda: _with_small_components(cycle_graph(31)),
    "grid": lambda: _with_small_components(grid_graph(7, 9)),
    "lone": lambda: MultiGraph.with_vertices(1),
    "pair": lambda: _with_small_components(MultiGraph.with_vertices(0)),
}


# The ids name the carve under test (the doubling ball carve).
@pytest.mark.parametrize(
    "name", sorted(_STRUCTURED), ids=lambda name: f"{name}-doubling"
)
def test_nd_implicit_power_matches_materialized(name):
    from repro.graph.csr import snapshot_of
    from repro.verify import check_network_decomposition

    g = _STRUCTURED[name]()
    snap = snapshot_of(g)
    for k in (1, 2, 3, 5, 8):
        power = reference_power_graph(g, k)
        expected = ref_nd.network_decomposition(power)
        implicit = network_decomposition(snap, power=k)
        assert implicit.classes == expected.classes, k
        assert ref_nd.network_decomposition(
            g, power=k
        ).classes == expected.classes
        assert network_decomposition(power).classes == expected.classes
        # The independent checker certifies the carve against G^k itself.
        check_network_decomposition(power, implicit.classes)


def test_nd_rejects_power_below_one():
    with pytest.raises(DecompositionError, match="power"):
        network_decomposition(path_graph(4), power=0)


@pytest.mark.parametrize(
    "name", ["path", "cycle", "grid"], ids=lambda name: f"{name}-doubling"
)
@pytest.mark.parametrize("radii", [(1, 1), (2, 1), (2, 3)])
def test_algorithm2_small_radii_dict_matches_csr(name, radii):
    """Small ``radius``/``search_radius`` make k = 2(R + R') far below
    the diameter, so the carve runs real non-clique shells and waves.
    Algorithm 2 carves G^k implicitly; the reference carves a
    materialized G^k on the dict adjacency, and both must agree on the
    clusters Algorithm 2 processes and on the charged rounds."""
    from repro.core.forest_decomposition import algorithm2
    from repro.graph.generators import uniform_palette
    from repro.verify import (
        check_forest_decomposition,
        check_palettes_respected,
    )

    g = _STRUCTURED[name]()
    palettes = uniform_palette(g, range(3))
    r, r_prime = radii
    counter = RoundCounter()
    result = algorithm2(
        g, palettes, 0.5, 2, radius=r, search_radius=r_prime,
        seed=5, rounds=counter,
    )
    ref_rounds = RoundCounter()
    reference = ref_nd.network_decomposition(
        g, ref_rounds, radius_cost=2 * (r + r_prime),
        power=max(1, min(2 * (r + r_prime), 2 * g.n)),
    )
    clusters = sum(len(classes) for classes in reference.classes)
    assert result.stats.clusters_processed == clusters
    assert counter.by_phase()["network decomposition"] == ref_rounds.total
    assert clusters > 1  # the carve split the graph
    check_forest_decomposition(g, result.colored, partial=True)
    check_palettes_respected(result.colored, palettes)


@pytest.mark.parametrize("carve_rule", ["doubling"])
@pytest.mark.parametrize("backend", ["auto", "csr"])
def test_forest_never_builds_power_graph(monkeypatch, backend, carve_rule):
    """The forest task never materializes G^k, also under configs
    loaded from payloads that name a retired ``backend`` or
    ``carve_rule`` value."""
    import repro
    from repro.graph.csr import CSRGraph
    from repro.graph.generators import preferential_attachment

    def refuse(self, radius):
        raise AssertionError("G^k was materialized")

    monkeypatch.setattr(CSRGraph, "power_csr", refuse)
    g = preferential_attachment(600, 3, seed=1)
    config = repro.DecompositionConfig.from_json({
        "epsilon": 0.5, "seed": 1, "backend": backend,
        "carve_rule": carve_rule,
    })
    result = repro.decompose(g, "forest", config=config)
    result.validate()
