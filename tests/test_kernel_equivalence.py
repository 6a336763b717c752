"""Property-based equivalence: flat-array kernel vs. dict-backed graph.

For ~200 seeded random multigraphs — varying vertex count, density,
parallel-edge rate, vertex-id gaps, and deleted edges (non-contiguous
edge ids) — assert that

* the :class:`CSRGraph` snapshot agrees with :class:`MultiGraph` on
  degrees, neighbor multisets, edge ids and endpoints;
* the ported algorithms (``h_partition``, ``degeneracy_ordering``,
  ``degeneracy_orientation``, ``acyclic_orientation``,
  ``low_outdegree_orientation``) return results identical to the
  dict-backed reference implementations, including charged rounds;
* the traversal layer (``bfs_distances``, ``neighborhood``,
  ``power_graph``, ``connected_components``,
  ``diameter_of_component``) and the network-decomposition machinery
  (``network_decomposition``, ``partial_network_decomposition``,
  ``cut_edges_of_clustering``) return identical values on both
  backends, including cluster and head orderings;
* the per-color sub-CSR path of
  :class:`~repro.core.partial_coloring.PartialListForestDecomposition`
  answers every path/component/connectivity query exactly like the
  dict walk under an identical mutation history;
* :func:`rooted_forest_arrays` reproduces :class:`RootedForest`'s
  rooting (depths, parent edges, root choice) on forest subsets.

Instances are derived deterministically from the parametrized seed, so
a failure always reproduces.
"""

import random

import numpy as np
import pytest

from repro.errors import GraphError, ValidationError
from repro.graph import CSRGraph, MultiGraph, RootedForest, rooted_forest_arrays
from repro.graph.csr import bfs_distance_array, resolve_backend, snapshot_of
from repro.graph.shard import ShardPlan, ShardedPeelingView, plan_of
from repro.graph.traversal import (
    bfs_distances,
    connected_components,
    diameter_of_component,
    neighborhood,
    power_graph,
)
from repro.core.orientation import low_outdegree_orientation
from repro.core.partial_coloring import PartialListForestDecomposition
from repro.decomposition.degeneracy import (
    degeneracy_ordering,
    degeneracy_orientation,
)
from repro.decomposition.hpartition import acyclic_orientation, h_partition
from repro.decomposition.network_decomposition import (
    cut_edges_of_clustering,
    network_decomposition,
    partial_network_decomposition,
)
from repro.local import RoundCounter

SEEDS = range(200)


def random_multigraph(seed: int) -> MultiGraph:
    """A seeded random multigraph exercising every snapshot code path."""
    rng = random.Random(seed * 7919 + 13)
    n = rng.randint(2, 16) if seed % 3 == 0 else rng.randint(2, 80)
    graph = MultiGraph()
    if seed % 5 == 3:
        # Non-contiguous vertex ids: the snapshot must renumber.
        ids = sorted(rng.sample(range(3 * n + 2), n))
        rng.shuffle(ids)
        for vertex in ids:
            graph.add_vertex(vertex)
    else:
        for _ in range(n):
            graph.add_vertex()
    vertices = graph.vertices()
    density = rng.uniform(0.3, 3.5)
    parallel_rate = rng.choice((0.0, 0.1, 0.5))
    pairs = []
    for _ in range(int(n * density)):
        if pairs and rng.random() < parallel_rate:
            u, v = rng.choice(pairs)  # parallel copy of an existing pair
        else:
            u, v = rng.sample(vertices, 2)
        pairs.append((u, v))
        graph.add_edge(u, v)
    if graph.m and seed % 4 == 1:
        # Deleted edges: the snapshot must handle id gaps.
        for eid in rng.sample(graph.edge_ids(), max(1, graph.m // 5)):
            graph.remove_edge(eid)
    return graph


@pytest.mark.parametrize("seed", SEEDS)
def test_snapshot_matches_multigraph(seed):
    graph = random_multigraph(seed)
    snap = CSRGraph.from_multigraph(graph)

    assert snap.num_vertices == graph.n
    assert snap.num_edges == graph.m
    assert set(snap.edge_id.tolist()) == set(graph.edge_ids())

    for vertex in graph.vertices():
        index = snap.index_of(vertex)
        assert int(snap.vertex_ids[index]) == vertex
        assert snap.degree(vertex) == graph.degree(vertex)
        start, stop = snap.incident_slice(index)
        mine = sorted(
            (int(eid), int(snap.vertex_ids[int(j)]))
            for eid, j in zip(snap.edge_ids[start:stop], snap.neighbor_ids[start:stop])
        )
        assert mine == sorted(graph.incident(vertex))

    for eid in graph.edge_ids():
        assert snap.endpoints(eid) == graph.endpoints(eid)

    u_of, v_of = snap.endpoint_maps()
    for eid in graph.edge_ids():
        assert (u_of[eid], v_of[eid]) == graph.endpoints(eid)


@pytest.mark.parametrize("seed", SEEDS)
def test_ported_algorithms_match_reference(seed):
    graph = random_multigraph(seed)

    ref_d, ref_order = degeneracy_ordering(graph, backend="dict")
    csr_d, csr_order = degeneracy_ordering(graph, backend="csr")
    assert (csr_d, csr_order) == (ref_d, ref_order)

    ref_pair = degeneracy_orientation(graph, backend="dict")
    csr_pair = degeneracy_orientation(graph, backend="csr")
    assert csr_pair == ref_pair

    # Peeling with threshold >= degeneracy can never stall.
    threshold = max(1, ref_d)
    ref_rounds, csr_rounds = RoundCounter(), RoundCounter()
    ref_partition = h_partition(graph, threshold, ref_rounds, backend="dict")
    csr_partition = h_partition(graph, threshold, csr_rounds, backend="csr")
    assert csr_partition.classes == ref_partition.classes
    assert csr_partition.threshold == ref_partition.threshold
    assert csr_rounds.total == ref_rounds.total

    ref_orient = acyclic_orientation(graph, ref_partition, backend="dict")
    csr_orient = acyclic_orientation(graph, csr_partition, backend="csr")
    assert csr_orient == ref_orient


@pytest.mark.parametrize("seed", range(0, 200, 10))
def test_low_outdegree_orientation_matches_reference(seed, monkeypatch):
    graph = random_multigraph(seed)
    if graph.m == 0:
        pytest.skip("empty instance")
    ref = low_outdegree_orientation(graph, 0.5, method="hpartition", backend="dict")
    csr = low_outdegree_orientation(graph, 0.5, method="hpartition", backend="csr")
    assert csr == ref
    # The engine backends, forced on at corpus sizes; "mp" is the
    # retired process backend's name, an alias of "parallel".
    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
    for backend in ("parallel", "mp"):
        assert low_outdegree_orientation(
            graph, 0.5, method="hpartition", backend=backend, workers=2
        ) == ref


@pytest.mark.parametrize("seed", range(0, 200, 5))
def test_rooted_forest_arrays_match_rooted_forest(seed):
    graph = random_multigraph(seed)
    snap = CSRGraph.from_multigraph(graph)

    # A spanning-forest subset via union-find-free greedy: add edges
    # that RootedForest accepts (it validates acyclicity itself).
    rng = random.Random(seed)
    eids = []
    for eid in graph.edge_ids():
        if rng.random() < 0.7:
            eids.append(eid)
    # Drop edges until acyclic.
    while True:
        try:
            reference = RootedForest(graph, eids)
            break
        except GraphError:
            eids.pop(rng.randrange(len(eids)))

    arrays = rooted_forest_arrays(snap, eids)
    assert arrays.max_depth == reference.max_depth()
    assert sorted(int(snap.vertex_ids[i]) for i in arrays.roots) == sorted(
        reference.roots
    )
    for vertex, eid in reference.parent_edge.items():
        index = snap.index_of(vertex)
        expected = -1 if eid is None else eid
        assert int(arrays.parent_eid[index]) == expected
        assert int(arrays.depth[index]) == reference.depth[vertex]

    # Preferred roots change the rooting exactly like RootedForest.
    preferred = set(rng.sample(graph.vertices(), max(1, graph.n // 3)))
    reference_pref = RootedForest(graph, eids, roots=preferred)
    arrays_pref = rooted_forest_arrays(snap, eids, preferred_roots=preferred)
    assert sorted(int(snap.vertex_ids[i]) for i in arrays_pref.roots) == sorted(
        reference_pref.roots
    )
    for vertex in reference_pref.depth:
        index = snap.index_of(vertex)
        assert int(arrays_pref.depth[index]) == reference_pref.depth[vertex]


@pytest.mark.parametrize("seed", range(0, 200, 3))
def test_traversal_matches_reference(seed):
    graph = random_multigraph(seed)
    rng = random.Random(seed * 31 + 7)
    sources = rng.sample(graph.vertices(), max(1, graph.n // 4))

    for radius in (None, 0, 1, 3):
        ref = bfs_distances(graph, sources, radius, backend="dict")
        csr = bfs_distances(graph, sources, radius, backend="csr")
        assert csr == ref
    assert neighborhood(graph, sources, 2, backend="csr") == neighborhood(
        graph, sources, 2, backend="dict"
    )

    ref_components = connected_components(graph, backend="dict")
    assert connected_components(graph, backend="csr") == ref_components
    # A snapshot input routes through the csr path under "auto" too.
    assert connected_components(snapshot_of(graph)) == ref_components

    largest = max(ref_components, key=len)
    assert diameter_of_component(
        graph, largest, backend="csr"
    ) == diameter_of_component(graph, largest, backend="dict")


@pytest.mark.parametrize("seed", range(0, 200, 5))
def test_power_graph_matches_reference(seed):
    graph = random_multigraph(seed)
    snap = snapshot_of(graph)
    for radius in (1, 2, 4):
        ref = power_graph(graph, radius, backend="dict")
        csr = power_graph(graph, radius, backend="csr")
        assert isinstance(ref, MultiGraph)
        assert isinstance(csr, CSRGraph)
        assert csr.vertices() == ref.vertices()
        assert csr.m == ref.m  # both simple: one edge per joined pair
        for vertex in graph.vertices():
            assert sorted(csr.neighbors(vertex)) == sorted(ref.neighbors(vertex))
        # "auto" keeps the input's representation.
        assert isinstance(power_graph(graph, radius), MultiGraph)
        assert isinstance(power_graph(snap, radius), CSRGraph)


@pytest.mark.parametrize("seed", range(0, 200, 5))
def test_network_decomposition_matches_reference(seed):
    graph = random_multigraph(seed)
    ref_rounds, csr_rounds = RoundCounter(), RoundCounter()
    ref = network_decomposition(graph, ref_rounds, radius_cost=3, backend="dict")
    csr = network_decomposition(graph, csr_rounds, radius_cost=3, backend="csr")
    assert csr.classes == ref.classes
    assert csr_rounds.total == ref_rounds.total

    # End to end across substrates: the ball carving applied to the
    # power graph must not care which backend produced it.
    power_ref = power_graph(graph, 2, backend="dict")
    power_csr = power_graph(graph, 2, backend="csr")
    assert (
        network_decomposition(power_csr, backend="csr").classes
        == network_decomposition(power_ref, backend="dict").classes
    )


@pytest.mark.parametrize("seed", range(0, 200, 5))
def test_simultaneous_carve_matches_reference(seed):
    graph = random_multigraph(seed)
    ref = network_decomposition(
        graph, backend="dict", carve_rule="simultaneous"
    )
    csr = network_decomposition(
        graph, backend="csr", carve_rule="simultaneous"
    )
    assert csr.classes == ref.classes


@pytest.mark.parametrize("seed", range(0, 200, 5))
def test_partial_network_decomposition_matches_reference(seed):
    graph = random_multigraph(seed)
    for beta in (0.2, 0.6):
        ref = partial_network_decomposition(
            graph, beta, seed=seed, backend="dict"
        )
        csr = partial_network_decomposition(
            graph, beta, seed=seed, backend="csr"
        )
        assert csr == ref
        assert list(csr) == list(ref)  # insertion order preserved too
        assert cut_edges_of_clustering(
            graph, ref, backend="csr"
        ) == cut_edges_of_clustering(graph, ref, backend="dict")


@pytest.mark.parametrize("seed", range(0, 200, 10))
def test_partial_coloring_backends_match(seed):
    """An identical mutation history on the dict and forced-csr color
    backends must agree on every success/failure, path, and component."""
    graph = random_multigraph(seed)
    if graph.m == 0:
        pytest.skip("empty instance")
    palette = range(4)
    palettes = {eid: palette for eid in graph.edge_ids()}
    ref = PartialListForestDecomposition(graph, palettes, backend="dict")
    ker = PartialListForestDecomposition(graph, palettes, backend="csr")

    rng = random.Random(seed * 131 + 5)
    for eid in graph.edge_ids():
        color = rng.randrange(4)
        outcomes = []
        for state in (ref, ker):
            try:
                state.set_color(eid, color)
                outcomes.append(True)
            except ValidationError:
                outcomes.append(False)
        assert outcomes[0] == outcomes[1]
        if rng.random() < 0.25:
            ref.uncolor(eid)
            ker.uncolor(eid)
    assert ref.coloring() == ker.coloring()

    for eid in graph.edge_ids():
        for color in palette:
            assert ref.color_path(eid, color) == ker.color_path(eid, color)
    for vertex in graph.vertices():
        for color in palette:
            assert ref.color_component_vertices(
                vertex, color
            ) == ker.color_component_vertices(vertex, color)
    ref.assert_valid()
    ker.assert_valid()


def test_partial_coloring_rejects_unknown_backend():
    graph = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValidationError):
        PartialListForestDecomposition(
            graph, {eid: range(2) for eid in graph.edge_ids()}, backend="dcit"
        )


def test_traversal_rejects_unknown_backend():
    graph = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphError):
        bfs_distances(graph, [0], backend="dcit")


def test_snapshot_cache_invalidates_on_mutation():
    graph = MultiGraph.from_edges(4, [(0, 1), (1, 2)])
    first = snapshot_of(graph)
    assert snapshot_of(graph) is first  # cache hit while unmutated
    graph.add_edge(2, 3)
    second = snapshot_of(graph)
    assert second is not first
    assert second.m == graph.m
    eid = graph.edge_ids()[0]
    graph.remove_edge(eid)
    third = snapshot_of(graph)
    assert third is not second and third.m == graph.m


def test_mask_of_rejects_unknown_vertices():
    graph = MultiGraph.from_edges(4, [(0, 1), (2, 3)])
    snap = CSRGraph.from_multigraph(graph)
    with pytest.raises(GraphError):
        snap.mask_of({-1})  # must not wrap around via negative indexing
    with pytest.raises(GraphError):
        snap.mask_of({7})


def test_rooted_forest_arrays_empty_edge_set():
    graph = MultiGraph.with_vertices(3)
    snap = CSRGraph.from_multigraph(graph)
    arrays = rooted_forest_arrays(snap, [])
    assert arrays.max_depth == 0  # matches RootedForest.max_depth()
    assert arrays.roots == []


def test_low_outdegree_orientation_rejects_unknown_backend():
    from repro.errors import DecompositionError

    graph = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(DecompositionError):
        low_outdegree_orientation(graph, 0.5, method="hpartition", backend="dcit")


def test_rooted_forest_arrays_rejects_cycles():
    graph = MultiGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    snap = CSRGraph.from_multigraph(graph)
    with pytest.raises(GraphError):
        rooted_forest_arrays(snap, graph.edge_ids())


# ----------------------------------------------------------------------
# Sharded multi-worker peeling backend
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(0, 200, 5))
def test_sharded_peeling_matches_reference(seed):
    """dict == csr == sharded H-partition classes and charged rounds,
    for every worker count and shard granularity — the backend's
    bit-identity contract.  The corpus includes parallel-edge and
    gappy-id instances; tiny shard counts make every wave cross shard
    boundaries."""
    graph = random_multigraph(seed)
    d, _ = degeneracy_ordering(graph)
    threshold = max(1, d)
    ref_rounds = RoundCounter()
    ref = h_partition(graph, threshold, ref_rounds, backend="dict")
    csr_partition = h_partition(graph, threshold, backend="csr")
    assert csr_partition.classes == ref.classes
    snap = snapshot_of(graph)
    for workers in (1, 2, 4):
        for num_shards in (1, 3, 7):
            plan = ShardPlan.from_snapshot(snap, num_shards)
            rounds = RoundCounter()
            sharded = h_partition(
                graph, threshold, rounds, backend="sharded",
                snapshot=snap, workers=workers, shard_plan=plan,
            )
            assert sharded.classes == ref.classes
            assert sharded.threshold == ref.threshold
            assert rounds.total == ref_rounds.total
    # "parallel" peels on the sharded view, and "mp" is its alias.
    for backend in ("parallel", "mp"):
        rounds = RoundCounter()
        aliased = h_partition(
            graph, threshold, rounds, backend=backend, snapshot=snap,
            workers=2,
        )
        assert aliased.classes == ref.classes
        assert rounds.total == ref_rounds.total


def test_sharded_boundary_heavy_parallel_edges():
    """Parallel edges straddling every shard boundary: multiplicities
    must decrement once per copy across the reconcile, with one shard
    per vertex (all decrements are boundary decrements)."""
    graph = MultiGraph.with_vertices(12)
    for i in range(11):
        for _ in range(1 + i % 3):  # 1-3 parallel copies per pair
            graph.add_edge(i, i + 1)
    ref = h_partition(graph, 3, backend="dict")
    assert ref.num_classes > 1  # a real wave cascade, not one wave
    snap = snapshot_of(graph)
    for num_shards in (2, 6, 12):
        plan = ShardPlan.from_snapshot(snap, num_shards)
        for workers in (1, 2, 4):
            sharded = h_partition(
                graph, 3, backend="sharded", snapshot=snap,
                workers=workers, shard_plan=plan,
            )
            assert sharded.classes == ref.classes


def test_sharded_view_interleaves_disciplines():
    """pop_min after sharded peel_leq (and a wave after pop_min) stays
    consistent: the scalar-mode fallback must see the updated state and
    the stale wave work-list must be discarded."""
    graph = MultiGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)])
    snap = CSRGraph.from_multigraph(graph)
    reference = snap.peeling_view()
    view = ShardedPeelingView(snap, ShardPlan.from_snapshot(snap, 3), 2)
    assert view.peel_leq(1).tolist() == reference.peel_leq(1).tolist()
    assert view.pop_min() == reference.pop_min()
    assert view.peel_leq(5).tolist() == reference.peel_leq(5).tolist()
    assert view.alive_count == reference.alive_count == 0


def test_sharded_view_threshold_changes_between_waves():
    """The wave work-list is threshold-specific; changing the threshold
    between waves must trigger a fresh shard scan, not reuse of the old
    candidate set."""
    rng = random.Random(77)
    graph = MultiGraph.with_vertices(40)
    for _ in range(90):
        u, v = rng.sample(range(40), 2)
        graph.add_edge(u, v)
    snap = snapshot_of(graph)
    reference = snap.peeling_view()
    view = ShardedPeelingView(snap, ShardPlan.from_snapshot(snap, 5), 2)
    for threshold in (1, 3, 2, 6, 4, 100):
        assert view.peel_leq(threshold).tolist() == \
            reference.peel_leq(threshold).tolist()
        assert view.alive_count == reference.alive_count
        if view.alive_count == 0:
            break
    assert view.alive_count == 0


def test_shard_plan_properties():
    graph = random_multigraph(7)
    snap = snapshot_of(graph)
    for num_shards in (1, 2, 5, snap.num_vertices):
        plan = ShardPlan.from_snapshot(snap, num_shards)
        bounds = plan.boundaries
        assert bounds[0] == 0 and bounds[-1] == snap.num_vertices
        assert np.all(np.diff(bounds) >= 0)
        assert plan.num_shards == min(num_shards, snap.num_vertices)
        for index in range(snap.num_vertices):
            shard = plan.shard_of(index)
            assert bounds[shard] <= index < bounds[shard + 1]
    # split() partitions an ascending index array along the boundaries
    plan = ShardPlan.from_snapshot(snap, 4)
    indices = np.arange(snap.num_vertices, dtype=np.int64)
    parts = plan.split(indices)
    assert len(parts) == plan.num_shards
    assert np.concatenate(parts).tolist() == indices.tolist()


def test_shard_plan_default_is_cached_on_snapshot():
    graph = random_multigraph(11)
    snap = snapshot_of(graph)
    assert plan_of(snap) is plan_of(snap)
    assert plan_of(snap, 3) is not plan_of(snap, 3)  # explicit = fresh


def test_sharded_plan_mismatch_rejected():
    small = snapshot_of(MultiGraph.with_vertices(3))
    large = snapshot_of(MultiGraph.with_vertices(9))
    with pytest.raises(GraphError):
        ShardedPeelingView(large, plan_of(small))


def test_resolve_backend_sharded_size_fallback(monkeypatch):
    from repro.graph.csr import SHARDED_AUTO_CUTOFF

    # Pin the forced-backend env off: the CI leg that sets
    # REPRO_FORCE_PARALLEL reroutes csr-resolved traversal callsites,
    # which is exactly what this test pins down for the default env.
    monkeypatch.delenv("REPRO_FORCE_PARALLEL", raising=False)
    small = MultiGraph.with_vertices(10)
    assert resolve_backend(small, "sharded", peeling=True) == "csr"

    class _FakeBig:
        n = SHARDED_AUTO_CUTOFF

    assert resolve_backend(_FakeBig(), "sharded", peeling=True) == "sharded"
    assert resolve_backend(_FakeBig(), "parallel", peeling=True) == "sharded"
    # Non-peeling layers (traversal, network decomposition, color
    # classes) route to the engine-backed parallel path at scale and
    # to the csr kernel below — never the dict reference path, never
    # the peeling-only "sharded" substrate.
    assert resolve_backend(_FakeBig(), "sharded") == "parallel"
    assert resolve_backend(_FakeBig(), "parallel") == "parallel"
    assert resolve_backend(small, "sharded") == "csr"
    assert resolve_backend(small, "parallel") == "csr"


def test_traversal_accepts_sharded_backend_on_kernel_path():
    """Regression: bfs_distances(backend="sharded") must run the CSR
    kernel (identical results), not the dict reference loop."""
    graph = random_multigraph(3)
    sources = graph.vertices()[:2]
    assert bfs_distances(graph, sources, backend="sharded") == \
        bfs_distances(graph, sources, backend="csr")


def test_h_partition_sharded_empty_and_tiny_graphs():
    empty = MultiGraph()
    assert h_partition(empty, 1, backend="sharded").classes == {}
    single = MultiGraph.with_vertices(1)
    assert h_partition(single, 1, backend="sharded").classes == \
        h_partition(single, 1, backend="dict").classes


# ----------------------------------------------------------------------
# BFS seed validation (regression: negative seeds used to wrap around)
# ----------------------------------------------------------------------


def test_bfs_distance_array_rejects_out_of_range_seeds():
    graph = MultiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    snap = snapshot_of(graph)
    with pytest.raises(GraphError, match="out of range"):
        bfs_distance_array(
            snap.vertex_offsets, snap.neighbor_ids, snap.num_vertices, [-1]
        )
    with pytest.raises(GraphError, match="out of range"):
        snap.distance_array([0, 4])
    # Regression: a negative seed previously meant "start from vertex
    # n-1" via numpy wraparound — silently wrong distances, no error.
    with pytest.raises(GraphError, match="out of range"):
        snap.distance_array([-1])
    # In-range seeds still work, and the empty seed set stays legal.
    assert snap.distance_array([0]).tolist() == [0, 1, 2, 3]
    assert snap.distance_array([]).tolist() == [-1, -1, -1, -1]


def test_peeling_view_interleaves_disciplines():
    """pop_min after peel_leq sees the updated degrees (shared state)."""
    graph = MultiGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)])
    snap = CSRGraph.from_multigraph(graph)
    view = snap.peeling_view()
    removed = view.peel_leq(1)  # vertices 0 and... only degree-1 vertices: 0
    assert [int(i) for i in removed] == [0]
    index, deg = view.pop_min()  # vertex 1 now has remaining degree 1
    assert (int(snap.vertex_ids[index]), deg) == (1, 1)
    rest = view.peel_leq(5)
    assert view.alive_count == 0
    assert sorted(int(snap.vertex_ids[i]) for i in rest) == [2, 3, 4]


# ----------------------------------------------------------------------
# Parallel (wave-engine) backend equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(0, 200, 10))
def test_parallel_traversal_matches_reference(seed, monkeypatch):
    """dict == csr == parallel for the BFS-shaped entry points, with
    the engine forced on so even corpus-sized graphs run real waves."""
    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
    graph = random_multigraph(seed)
    vertices = graph.vertices()
    sources = vertices[: max(1, len(vertices) // 4)]

    assert bfs_distances(graph, sources, backend="parallel") == \
        bfs_distances(graph, sources, backend="dict")
    assert neighborhood(graph, sources[:1], 2, backend="parallel") == \
        neighborhood(graph, sources[:1], 2, backend="dict")
    assert connected_components(graph, backend="parallel") == \
        connected_components(graph, backend="dict")

    nd_ref = network_decomposition(graph, backend="dict")
    nd_par = network_decomposition(graph, backend="parallel", workers=2)
    assert nd_par.classes == nd_ref.classes

    for comp in connected_components(graph, backend="dict")[:2]:
        assert diameter_of_component(graph, comp, backend="parallel") == \
            diameter_of_component(graph, comp, backend="dict")


@pytest.mark.parametrize("seed", range(3, 200, 16))
def test_depth_cut_backends_identical(seed, monkeypatch):
    """depth_cut's arrays path (and the engine-backed rooting) cuts
    exactly the dict RootedForest path's edges, same RNG stream."""
    from repro.core.diameter_reduction import depth_cut
    import repro.core.diameter_reduction as dr

    graph = random_multigraph(seed)
    if graph.m == 0:
        pytest.skip("edgeless corpus instance")
    # A proper forest coloring: split edges into forests greedily.
    from repro.graph.union_find import UnionFind

    coloring = {}
    finders = []
    for eid in sorted(graph.edge_ids()):
        u, v = graph.endpoints(eid)
        for color, uf in enumerate(finders):
            if uf.union(u, v):
                coloring[eid] = color
                break
        else:
            uf = UnionFind()
            uf.union(u, v)
            finders.append(uf)
            coloring[eid] = len(finders) - 1

    reference = depth_cut(graph, coloring, z=3, seed=seed, backend="dict")
    # Drop the gate so every class exercises the arrays path.
    monkeypatch.setattr(dr, "DEPTH_CUT_ARRAYS_MIN_EDGES", 0)
    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
    for backend in ("csr", "parallel", "mp"):
        got = depth_cut(
            graph, coloring, z=3, seed=seed, backend=backend, workers=2
        )
        assert got.kept == reference.kept
        assert got.deleted == reference.deleted
        assert got.deletion_tail == reference.deletion_tail


@pytest.mark.parametrize("seed", range(5, 120, 18))
def test_color_class_parallel_backend_matches_dict(seed):
    """PartialListForestDecomposition path/component queries agree
    between the dict walk and the engine-backed parallel sweeps under
    an identical mutation history."""
    graph = random_multigraph(seed)
    if graph.m == 0:
        pytest.skip("edgeless corpus instance")
    palettes = {eid: (0, 1, 2) for eid in graph.edge_ids()}
    rng = random.Random(seed)
    states = {
        "dict": PartialListForestDecomposition(graph, palettes, "dict"),
        "parallel": PartialListForestDecomposition(
            graph, palettes, "parallel", workers=2
        ),
    }
    for eid in sorted(graph.edge_ids()):
        color = rng.choice((0, 1, 2))
        outcomes = {}
        for name, state in states.items():
            try:
                state.set_color(eid, color)
                outcomes[name] = "ok"
            except ValidationError:
                outcomes[name] = "cycle"
        assert outcomes["dict"] == outcomes["parallel"]
        probe = rng.choice(sorted(graph.edge_ids()))
        assert states["dict"].color_path(probe, color) == \
            states["parallel"].color_path(probe, color)
        start = rng.choice(graph.vertices())
        assert states["dict"].color_component_vertices(start, color) == \
            states["parallel"].color_component_vertices(start, color)
