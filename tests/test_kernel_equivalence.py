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
def test_low_outdegree_orientation_matches_reference(seed):
    graph = random_multigraph(seed)
    if graph.m == 0:
        pytest.skip("empty instance")
    ref = low_outdegree_orientation(graph, 0.5, method="hpartition", backend="dict")
    csr = low_outdegree_orientation(graph, 0.5, method="hpartition", backend="csr")
    assert csr == ref
    # The retired backend names are aliases of csr.
    for backend in ("sharded", "parallel", "mp"):
        assert low_outdegree_orientation(
            graph, 0.5, method="hpartition", backend=backend
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
# Threshold-peel work-list (PeelingView) and the retired peel aliases
# ----------------------------------------------------------------------


class _DictPeel:
    """Dict reference for :class:`PeelingView`'s two disciplines: a
    threshold wave removes every live vertex of remaining degree <= t
    at once; delete-min removes the live vertex minimizing
    ``(remaining degree, vertex id)``."""

    def __init__(self, graph):
        self.graph = graph
        self.remaining = {v: graph.degree(v) for v in graph.vertices()}

    def _remove(self, vertices):
        for v in vertices:
            del self.remaining[v]
        for v in vertices:
            for _eid, other in self.graph.incident(v):
                if other in self.remaining:
                    self.remaining[other] -= 1

    def peel_leq(self, threshold):
        leaving = sorted(
            v for v, d in self.remaining.items() if d <= threshold
        )
        self._remove(leaving)
        return leaving

    def pop_min(self):
        vertex = min(self.remaining, key=lambda v: (self.remaining[v], v))
        degree = self.remaining[vertex]
        self._remove([vertex])
        return vertex, degree


def _view_ids(snap, indices):
    return sorted(int(snap.vertex_ids[i]) for i in indices)


def _assert_peel_matches(graph, threshold):
    """dict == csr H-partition classes and charged rounds, and every
    retired peel name (an alias of csr) agrees too."""
    ref_rounds = RoundCounter()
    ref = h_partition(graph, threshold, ref_rounds, backend="dict")
    snap = snapshot_of(graph)
    for backend in ("csr", "sharded", "parallel", "mp"):
        rounds = RoundCounter()
        got = h_partition(
            graph, threshold, rounds, backend=backend, snapshot=snap
        )
        assert got.classes == ref.classes
        assert got.threshold == ref.threshold
        assert rounds.total == ref_rounds.total
    return ref


@pytest.mark.parametrize("seed", range(0, 200, 5))
def test_sharded_peeling_matches_reference(seed):
    """The csr peel's wave work-list reproduces the dict reference's
    classes and charged rounds on the corpus (parallel-edge and
    gappy-id instances included)."""
    graph = random_multigraph(seed)
    d, _ = degeneracy_ordering(graph)
    _assert_peel_matches(graph, max(1, d))


def test_sharded_boundary_heavy_parallel_edges():
    """Long wave cascades, where the work-list carries every wave after
    the first: a chain with 1-3 parallel copies per pair (multiplicities
    must decrement once per copy) and a 40 x 40 grid at t = 2."""
    from repro.graph.generators import grid_graph

    chain = MultiGraph.with_vertices(12)
    for i in range(11):
        for _ in range(1 + i % 3):  # 1-3 parallel copies per pair
            chain.add_edge(i, i + 1)
    for graph, threshold in ((chain, 3), (grid_graph(40, 40), 2)):
        ref = _assert_peel_matches(graph, threshold)
        assert ref.num_classes > 1  # a real wave cascade, not one wave


def test_sharded_view_interleaves_disciplines():
    """pop_min after a threshold wave (and a wave after pop_min) stays
    consistent with the dict reference: the scalar-mode switch must see
    the updated state and the wave work-list must be discarded."""
    graph = MultiGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)])
    snap = CSRGraph.from_multigraph(graph)
    reference = _DictPeel(graph)
    view = snap.peeling_view()
    assert _view_ids(snap, view.peel_leq(1)) == reference.peel_leq(1)
    index, degree = view.pop_min()
    assert (int(snap.vertex_ids[index]), degree) == reference.pop_min()
    assert _view_ids(snap, view.peel_leq(5)) == reference.peel_leq(5)
    assert view.alive_count == len(reference.remaining) == 0
    _assert_peel_matches(graph, 2)


def test_sharded_view_threshold_changes_between_waves():
    """The wave work-list is threshold-specific; changing the threshold
    between waves must trigger a full scan, not reuse of the old
    candidate set."""
    rng = random.Random(77)
    graph = MultiGraph.with_vertices(40)
    for _ in range(90):
        u, v = rng.sample(range(40), 2)
        graph.add_edge(u, v)
    snap = snapshot_of(graph)
    reference = _DictPeel(graph)
    view = snap.peeling_view()
    for threshold in (1, 1, 3, 2, 6, 6, 4, 100):
        assert _view_ids(snap, view.peel_leq(threshold)) == \
            reference.peel_leq(threshold)
        assert view.alive_count == len(reference.remaining)
        if view.alive_count == 0:
            break
    assert view.alive_count == 0
    d, _ = degeneracy_ordering(graph)
    _assert_peel_matches(graph, max(1, d))


def test_resolve_backend_sharded_size_fallback():
    """The retired names resolve to csr at every size, for every
    layer; ``auto`` keeps its own size gate."""
    small = MultiGraph.with_vertices(10)

    class _FakeBig:
        n = 1_000_000

    for graph in (small, _FakeBig()):
        for name in ("sharded", "parallel", "mp", "csr"):
            assert resolve_backend(graph, name) == "csr"
    assert resolve_backend(small, "auto") == "dict"
    assert resolve_backend(_FakeBig(), "auto") == "csr"
    with pytest.raises(GraphError):
        resolve_backend(small, "threads")


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
# Retired backend aliases and the concurrent schedule
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(0, 200, 10))
def test_parallel_traversal_matches_reference(seed):
    """dict == parallel (an alias of csr) for the BFS-shaped entry
    points."""
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
    nd_par = network_decomposition(graph, backend="parallel")
    assert nd_par.classes == nd_ref.classes

    for comp in connected_components(graph, backend="dict")[:2]:
        assert diameter_of_component(graph, comp, backend="parallel") == \
            diameter_of_component(graph, comp, backend="dict")


@pytest.mark.parametrize("seed", range(3, 200, 16))
def test_depth_cut_backends_identical(seed, monkeypatch):
    """depth_cut's arrays path (per-class and, under the concurrent
    schedule, the stacked batched rooting) cuts exactly the dict
    RootedForest path's edges, same RNG stream; and the forest,
    orientation and list_forest tasks are bit-identical across
    schedules on the csr kernel."""
    import repro
    from repro.core import DecompositionConfig
    from repro.core.diameter_reduction import depth_cut
    from repro.graph.generators import random_palettes
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
    for schedule in ("serial", "concurrent"):
        for backend in ("csr", "parallel", "mp"):
            got = depth_cut(
                graph, coloring, z=3, seed=seed, backend=backend,
                schedule=schedule,
            )
            assert got.kept == reference.kept
            assert got.deleted == reference.deleted
            assert got.deletion_tail == reference.deletion_tail

    # Whole tasks: the schedule is a parameter of the run, the dict
    # serial run is the reference.
    alpha = max(1, len(finders))
    palettes = random_palettes(graph, 2 * alpha + 2, 4 * alpha + 4, seed=seed)
    tasks = (
        ("forest", {}, {"diameter_mode": "auto"}),
        ("orientation", {}, {}),
        ("list_forest", {"palettes": palettes}, {}),
    )
    for task, kwargs, fields in tasks:
        reference = repro.decompose(
            graph, task=task, config=DecompositionConfig(
                seed=seed, backend="dict", schedule="serial", **fields
            ), **kwargs,
        )
        for schedule in ("serial", "concurrent"):
            got = repro.decompose(
                graph, task=task, config=DecompositionConfig(
                    seed=seed, backend="csr", schedule=schedule, **fields
                ), **kwargs,
            )
            assert got.coloring == reference.coloring
            assert got.rounds.total == reference.rounds.total


@pytest.mark.parametrize("seed", range(5, 120, 18))
def test_color_class_parallel_backend_matches_dict(seed):
    """PartialListForestDecomposition path/component queries agree
    between the dict walk and the "parallel" alias (csr sweeps) under
    an identical mutation history."""
    graph = random_multigraph(seed)
    if graph.m == 0:
        pytest.skip("edgeless corpus instance")
    palettes = {eid: (0, 1, 2) for eid in graph.edge_ids()}
    rng = random.Random(seed)
    states = {
        "dict": PartialListForestDecomposition(graph, palettes, "dict"),
        "parallel": PartialListForestDecomposition(
            graph, palettes, "parallel"
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
