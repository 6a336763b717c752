"""Property-based equivalence: flat-array kernel vs. the dict reference.

For ~200 seeded random multigraphs — varying vertex count, density,
parallel-edge rate, vertex-id gaps, and deleted edges (non-contiguous
edge ids) — assert that

* the :class:`CSRGraph` snapshot agrees with :class:`MultiGraph` on
  degrees, neighbor multisets, edge ids and endpoints;
* the peels (``h_partition``, ``degeneracy_ordering``,
  ``degeneracy_orientation``, ``acyclic_orientation``,
  ``low_outdegree_orientation``) return results identical to the
  dict-adjacency implementations of the reference package
  (``tests/reference/``), including charged rounds;
* the traversal layer (``bfs_distances``, ``neighborhood``,
  ``power_graph``, ``connected_components``,
  ``diameter_of_component``) and the network-decomposition machinery
  (``network_decomposition``, ``partial_network_decomposition``,
  ``cut_edges_of_clustering``) return the reference's values,
  including cluster and head orderings;
* the link/cut color forests of
  :class:`~repro.core.partial_coloring.PartialListForestDecomposition`
  answer every path/component/connectivity query exactly like the
  reference's BFS under an identical mutation history;
* the stacked rooting kernel (:func:`rooted_forest_class_depths`) and
  its callers (``depth_cut``, Cole–Vishkin parents, the 2α star split)
  reproduce :class:`RootedForest`'s rooting (depths, child endpoints,
  root choice), cuts, colors and charged rounds.

Instances are derived deterministically from the parametrized seed, so
a failure always reproduces.
"""

import random
from types import SimpleNamespace

import pytest

from repro.errors import GraphError, ValidationError
from repro.graph import CSRGraph, MultiGraph, RootedForest, color_classes
from repro.graph.csr import (
    bfs_distance_array,
    rooted_forest_class_depths,
    snapshot_of,
)
from repro.graph.union_find import UnionFind
from repro.graph.generators import preferential_attachment
from repro.graph.traversal import (
    bfs_distances,
    connected_components,
    diameter_of_component,
    neighborhood,
    power_graph,
)
from repro.core.api import low_outdegree_orientation
from repro.core.star_forest import two_coloring_star_forests
from repro.decomposition.cole_vishkin import three_color_rooted_forest
from repro.core.partial_coloring import PartialListForestDecomposition
from repro.decomposition.degeneracy import (
    degeneracy_ordering,
    degeneracy_orientation,
)
from repro.decomposition.hpartition import (
    acyclic_orientation,
    default_threshold,
    h_partition,
    rooted_forests_from_orientation,
    star_forest_decomposition_via_hpartition,
)
from repro.decomposition.network_decomposition import (
    cut_edges_of_clustering,
    network_decomposition,
    partial_network_decomposition,
)
from repro.local import RoundCounter
from repro.nashwilliams import exact_pseudoarboricity

from reference import network_decomposition as ref_nd
from reference import peel as ref_peel
from reference import traversal as ref_traversal
from reference.diameter_reduction import depth_cut as ref_depth_cut
from reference.partial_coloring import BFSPartialListForestDecomposition

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
            for eid, j in zip(snap.half_edge_ids[start:stop], snap.neighbor_ids[start:stop])
        )
        assert mine == sorted(graph.incident(vertex))

    for eid in graph.edge_ids():
        assert snap.endpoints(eid) == graph.endpoints(eid)

    u_of, v_of = snap.endpoint_maps()
    for eid in graph.edge_ids():
        assert (u_of[eid], v_of[eid]) == graph.endpoints(eid)


def _deleted_edge_graph():
    graph = MultiGraph.with_vertices(6)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 1)]:
        graph.add_edge(u, v)
    graph.remove_edge(2)
    return graph


def _unsorted_subgraph():
    return _deleted_edge_graph().edge_subgraph([6, 0, 5, 3])


@pytest.mark.parametrize(
    "make", [_deleted_edge_graph, _unsorted_subgraph],
    ids=["after-remove-edge", "unsorted-edge-subgraph"],
)
def test_edge_positions_resolve_non_identity_ids(make):
    """Edge ids that are not ``0..m-1`` resolve by binary search: over
    ``edge_id`` itself once an edge was deleted, over its argsort when
    the ids do not ascend."""
    graph = make()
    snap = CSRGraph.from_multigraph(graph)
    eids = graph.edge_ids()
    for eid in eids:
        assert snap.endpoints(eid) == graph.endpoints(eid)
    positions = snap.edge_positions(eids)
    assert snap.edge_id[positions].tolist() == eids
    shuffled = list(reversed(eids))
    assert snap.edge_id[snap.edge_positions(shuffled)].tolist() == shuffled
    assert snap.edge_positions([]).tolist() == []
    for unknown in (2, 7, 100, -1):
        with pytest.raises(KeyError):
            snap.endpoints(unknown)
        with pytest.raises(KeyError):
            snap.edge_positions([eids[0], unknown])


@pytest.mark.parametrize("seed", SEEDS)
def test_ported_algorithms_match_reference(seed):
    graph = random_multigraph(seed)

    ref_d, ref_order = ref_peel.degeneracy_ordering(graph)
    csr_d, csr_order = degeneracy_ordering(graph)
    assert (csr_d, csr_order) == (ref_d, ref_order)

    assert degeneracy_orientation(graph) == ref_peel.degeneracy_orientation(
        graph
    )

    # Peeling with threshold >= degeneracy can never stall.
    threshold = max(1, ref_d)
    ref_rounds, csr_rounds = RoundCounter(), RoundCounter()
    ref_partition = ref_peel.h_partition(graph, threshold, ref_rounds)
    csr_partition = h_partition(graph, threshold, csr_rounds)
    assert csr_partition.classes == ref_partition.classes
    assert csr_partition.threshold == ref_partition.threshold
    assert csr_rounds.total == ref_rounds.total

    ref_orient = ref_peel.acyclic_orientation(graph, ref_partition)
    csr_orient = acyclic_orientation(graph, csr_partition)
    assert csr_orient == ref_orient


def _degeneracy(graph):
    return max(1, ref_peel.degeneracy_ordering(graph)[0])


#: The kernel peels under the reference module's names.
kernel_peel = SimpleNamespace(
    h_partition=h_partition,
    acyclic_orientation=acyclic_orientation,
    degeneracy_ordering=degeneracy_ordering,
    degeneracy_orientation=degeneracy_orientation,
)


def _peel_classes(peel, graph, **kwargs):
    return peel.h_partition(graph, _degeneracy(graph), **kwargs).classes


def _peel_orientation(peel, graph, **kwargs):
    partition = ref_peel.h_partition(graph, _degeneracy(graph))
    return peel.acyclic_orientation(graph, partition, **kwargs)


@pytest.mark.parametrize(
    "run",
    [
        _peel_classes, _peel_orientation,
        lambda peel, graph, **kw: peel.degeneracy_ordering(graph, **kw),
        lambda peel, graph, **kw: peel.degeneracy_orientation(graph, **kw),
    ],
    ids=[
        "h_partition", "acyclic_orientation",
        "degeneracy_ordering", "degeneracy_orientation",
    ],
)
def test_peel_kernels_accept_every_config_backend(run):
    """The four peel kernels take no substrate argument: below and
    above the size where the retired ``backend="auto"`` switched to the
    kernel (n = 256) they match the reference, and a ``backend=``
    keyword is a ``TypeError``."""
    for n in (50, 300):
        graph = preferential_attachment(n, 3, seed=n)
        assert run(kernel_peel, graph) == run(ref_peel, graph)
        with pytest.raises(TypeError):
            run(kernel_peel, graph, backend="csr")


@pytest.mark.parametrize("seed", range(0, 200, 10))
def test_low_outdegree_orientation_matches_reference(seed):
    graph = random_multigraph(seed)
    if graph.m == 0:
        pytest.skip("empty instance")
    orientation, bound = low_outdegree_orientation(
        graph, 0.5, method="hpartition"
    )
    threshold = max(1, default_threshold(exact_pseudoarboricity(graph), 0.5))
    partition = ref_peel.h_partition(graph, threshold)
    assert bound == threshold
    assert orientation == ref_peel.acyclic_orientation(graph, partition)


def _greedy_forest_coloring(graph):
    """Split every edge into forests greedily, in edge-id order."""
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
    return coloring


def _stacked_rooting(graph):
    """``(color, eids, (depth_u, depth_v, child ids))`` per class of the
    greedy forest coloring, all classes rooted in one kernel call."""
    snap = snapshot_of(graph)
    classes = sorted(color_classes(_greedy_forest_coloring(graph)).items())
    per_class, _waves = rooted_forest_class_depths(
        snap, [snap.edge_positions(eids) for _color, eids in classes]
    )
    return [
        (color, eids, arrays)
        for (color, eids), arrays in zip(classes, per_class)
    ]


def _kernel_parent_map(graph, eids, child_ids):
    """``{vertex: parent or None}`` read off the kernel's child ids."""
    parent = {}
    for eid, child in zip(eids, child_ids.tolist()):
        u, v = graph.endpoints(eid)
        parent.setdefault(u, None)
        parent.setdefault(v, None)
        parent[child] = v if child == u else u
    return parent


@pytest.mark.parametrize("seed", range(0, 200, 5))
def test_rooted_forest_class_depths_match_rooted_forest(seed):
    """The stacked kernel roots every class exactly like one
    ``RootedForest`` per class: endpoint depths, child endpoints and
    the root of every tree (its minimum vertex id)."""
    graph = random_multigraph(seed)
    for _color, eids, (depth_u, depth_v, child_ids) in _stacked_rooting(graph):
        reference = RootedForest(graph, eids)
        roots = set()
        for eid, du, dv, child in zip(
            eids, depth_u.tolist(), depth_v.tolist(), child_ids.tolist()
        ):
            u, v = graph.endpoints(eid)
            assert (du, dv) == (reference.depth[u], reference.depth[v])
            assert reference.parent_edge[child] == eid
            roots.update(x for x, d in ((u, du), (v, dv)) if d == 0)
        assert sorted(roots) == sorted(reference.roots)


def _reference_hpartition_star_split(graph, partition, rounds):
    """Theorem 2.1(3)'s star split with Cole–Vishkin on one
    ``RootedForest(...).parent`` per label class."""
    orientation = acyclic_orientation(graph, partition, rounds)
    coloring = {}
    forests = rooted_forests_from_orientation(graph, orientation)
    for label, eids in enumerate(forests):
        parent = RootedForest(graph, eids).parent
        colors = three_color_rooted_forest(parent, rounds)
        for eid in eids:
            u, v = graph.endpoints(eid)
            coloring[eid] = (label, colors[v if orientation[eid] == u else u])
    return coloring


@pytest.mark.parametrize("seed", range(0, 200, 10))
def test_cole_vishkin_on_kernel_parents_matches_rooted_forest(seed):
    """Cole–Vishkin on the kernel's parent map colors and charges
    exactly as on ``RootedForest(...).parent``, per class and inside
    the H-partition star split."""
    graph = random_multigraph(seed)
    for _color, eids, (_du, _dv, child_ids) in _stacked_rooting(graph):
        reference = RootedForest(graph, eids).parent
        parent = _kernel_parent_map(graph, eids, child_ids)
        assert parent == reference
        rounds, ref_rounds = RoundCounter(), RoundCounter()
        assert three_color_rooted_forest(parent, rounds) == \
            three_color_rooted_forest(reference, ref_rounds)
        assert rounds.total == ref_rounds.total

    if graph.m == 0:
        return
    threshold = max(1, default_threshold(exact_pseudoarboricity(graph), 0.5))
    partition = h_partition(graph, threshold)
    rounds, ref_rounds = RoundCounter(), RoundCounter()
    got = star_forest_decomposition_via_hpartition(graph, partition, rounds)
    assert got == _reference_hpartition_star_split(graph, partition, ref_rounds)
    assert rounds.total == ref_rounds.total


def _reference_two_coloring(graph, forest_coloring, rounds):
    """The 2α star split on one ``RootedForest`` per class."""
    coloring = {}
    for color, eids in sorted(color_classes(forest_coloring).items()):
        forest = RootedForest(graph, eids)
        even, odd = forest.depth_parity_split()
        coloring.update((eid, (color, 0)) for eid in even)
        coloring.update((eid, (color, 1)) for eid in odd)
        rounds.charge(2 * max(1, forest.max_depth()), "depth parity labelling")
    return coloring


@pytest.mark.parametrize("seed", range(0, 200, 10))
def test_two_coloring_star_forests_matches_rooted_forest(seed):
    graph = random_multigraph(seed)
    forest_coloring = _greedy_forest_coloring(graph)
    rounds, ref_rounds = RoundCounter(), RoundCounter()
    got = two_coloring_star_forests(graph, forest_coloring, rounds)
    assert got == _reference_two_coloring(graph, forest_coloring, ref_rounds)
    assert rounds.total == ref_rounds.total


@pytest.mark.parametrize("seed", range(0, 200, 3))
def test_traversal_matches_reference(seed):
    graph = random_multigraph(seed)
    rng = random.Random(seed * 31 + 7)
    sources = rng.sample(graph.vertices(), max(1, graph.n // 4))

    for radius in (None, 0, 1, 3):
        ref = ref_traversal.bfs_distances(graph, sources, radius)
        assert bfs_distances(graph, sources, radius) == ref
    assert neighborhood(graph, sources, 2) == ref_traversal.neighborhood(
        graph, sources, 2
    )

    ref_components = ref_traversal.connected_components(graph)
    assert connected_components(graph) == ref_components
    assert connected_components(snapshot_of(graph)) == ref_components

    largest = max(ref_components, key=len)
    assert diameter_of_component(
        graph, largest
    ) == ref_traversal.diameter_of_component(graph, largest)


@pytest.mark.parametrize("seed", range(0, 200, 5))
def test_power_graph_matches_reference(seed):
    graph = random_multigraph(seed)
    snap = snapshot_of(graph)
    for radius in (1, 2, 4):
        ref = ref_traversal.power_graph(graph, radius)
        csr = power_graph(graph, radius)
        assert isinstance(ref, MultiGraph)
        assert isinstance(csr, CSRGraph)
        assert csr.vertices() == ref.vertices()
        assert csr.m == ref.m  # both simple: one edge per joined pair
        for vertex in graph.vertices():
            assert sorted(csr.neighbors(vertex)) == sorted(ref.neighbors(vertex))
        # A snapshot input gives the same power graph.
        from_snap = power_graph(snap, radius)
        assert isinstance(from_snap, CSRGraph)
        assert from_snap.edge_u_ids.tolist() == csr.edge_u_ids.tolist()
        assert from_snap.edge_v_ids.tolist() == csr.edge_v_ids.tolist()


@pytest.mark.parametrize("seed", range(0, 200, 5))
def test_network_decomposition_matches_reference(seed):
    graph = random_multigraph(seed)
    ref_rounds, csr_rounds = RoundCounter(), RoundCounter()
    ref = ref_nd.network_decomposition(graph, ref_rounds, radius_cost=3)
    csr = network_decomposition(graph, csr_rounds, radius_cost=3)
    assert csr.classes == ref.classes
    assert csr_rounds.total == ref_rounds.total

    # The carve must not care which side built the power graph it is
    # given: the reference's MultiGraph or the kernel's snapshot.
    power_ref = ref_traversal.power_graph(graph, 2)
    expected = ref_nd.network_decomposition(power_ref).classes
    assert network_decomposition(power_graph(graph, 2)).classes == expected
    assert network_decomposition(power_ref).classes == expected


# The ids name the carve under test (the doubling ball carve).
@pytest.mark.parametrize(
    "seed", range(0, 200, 5), ids=lambda seed: f"{seed}-doubling"
)
def test_implicit_power_carve_matches_materialized(seed):
    """``power=k`` carves G^k on G without building it: cluster for
    cluster equal to carving the materialized ``power_graph``, and to
    the reference carving its own ``G^k``, with the same charged
    rounds."""
    graph = random_multigraph(seed)
    snap = snapshot_of(graph)
    for k in (1, 2, 3, 5, 8):
        implicit_rounds, explicit_rounds = RoundCounter(), RoundCounter()
        implicit = network_decomposition(
            snap, implicit_rounds, radius_cost=k, power=k,
        )
        explicit = network_decomposition(
            power_graph(snap, k), explicit_rounds, radius_cost=k,
        )
        assert implicit.classes == explicit.classes, k
        assert implicit_rounds.total == explicit_rounds.total
        if k <= 3:
            reference = ref_nd.network_decomposition(
                graph, radius_cost=k, power=k,
            )
            assert implicit.classes == reference.classes, k


@pytest.mark.parametrize("seed", range(0, 200, 5))
def test_partial_network_decomposition_matches_reference(seed):
    graph = random_multigraph(seed)
    for beta in (0.2, 0.6):
        ref = ref_nd.partial_network_decomposition(graph, beta, seed=seed)
        csr = partial_network_decomposition(graph, beta, seed=seed)
        assert csr == ref
        assert list(csr) == list(ref)  # insertion order preserved too
        assert cut_edges_of_clustering(
            graph, ref
        ) == ref_nd.cut_edges_of_clustering(graph, ref)


def _assert_color_queries_match(ref, ker, graph, probes, palette):
    for color in palette:
        for eid in probes:
            assert ref.color_path(eid, color) == ker.color_path(eid, color)
            for vertex in graph.endpoints(eid):
                assert ref.color_component_vertices(
                    vertex, color
                ) == ker.color_component_vertices(vertex, color)


@pytest.mark.parametrize("seed", range(0, 200, 10))
def test_partial_coloring_backends_match(seed):
    """An identical mutation history on the kernel state and the
    reference's BFS-query state must agree on every success/failure,
    and on paths and components after every mutation (colorings,
    recolorings and uncolorings interleave links and cuts in the color
    forests)."""
    graph = random_multigraph(seed)
    if graph.m == 0:
        pytest.skip("empty instance")
    palette = range(4)
    palettes = {eid: palette for eid in graph.edge_ids()}
    ref = BFSPartialListForestDecomposition(graph, palettes)
    ker = PartialListForestDecomposition(graph, palettes)
    edge_ids = graph.edge_ids()

    rng = random.Random(seed * 131 + 5)

    def color_both(eid, color):
        outcomes = []
        for state in (ref, ker):
            try:
                state.set_color(eid, color)
                outcomes.append(True)
            except ValidationError:
                outcomes.append(False)
        assert outcomes[0] == outcomes[1]
        assert ref.color_of(eid) == ker.color_of(eid)
        probes = [eid] + rng.sample(edge_ids, min(6, len(edge_ids)))
        _assert_color_queries_match(ref, ker, graph, probes, palette)

    for eid in edge_ids:
        color_both(eid, rng.randrange(4))
        if rng.random() < 0.25:
            ref.uncolor(eid)
            ker.uncolor(eid)
            _assert_color_queries_match(ref, ker, graph, [eid], palette)
        colored = sorted(ref.colored_edges())
        if colored and rng.random() < 0.5:
            # Recolor: set_color on an already-colored edge cuts it from
            # one forest and links it into another (or restores it).
            color_both(rng.choice(colored), rng.randrange(4))
    assert ref.coloring() == ker.coloring()

    for eid in edge_ids:
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
    """The color-class state has one substrate: a ``backend`` argument
    is a ``TypeError``, not a silently ignored value."""
    graph = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(TypeError):
        PartialListForestDecomposition(
            graph, {eid: range(2) for eid in graph.edge_ids()}, backend="dict"
        )


def test_traversal_rejects_unknown_backend():
    """Traversal has one substrate: a ``backend`` keyword is a
    ``TypeError``, and an unknown source still raises ``GraphError``."""
    graph = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(TypeError):
        bfs_distances(graph, [0], backend="dict")
    with pytest.raises(GraphError):
        bfs_distances(graph, [9])


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


def test_rooted_forest_class_depths_empty_classes():
    graph = MultiGraph.with_vertices(3)
    snap = CSRGraph.from_multigraph(graph)
    assert rooted_forest_class_depths(snap, []) == ([], 0)
    per_class, waves = rooted_forest_class_depths(
        snap, [snap.edge_positions([])]
    )
    assert waves == 0
    assert [[a.size for a in arrays] for arrays in per_class] == [[0, 0, 0]]


def test_low_outdegree_orientation_rejects_unknown_backend():
    """The orientation wrapper has one substrate: a ``backend`` keyword
    is a ``TypeError``."""
    graph = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(TypeError):
        low_outdegree_orientation(graph, 0.5, method="hpartition", backend="dict")


def test_rooted_forest_class_depths_rejects_cycles():
    """A cycle in any class raises, also behind a class that is a
    forest; so do two parallel edges."""
    graph = MultiGraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3), (2, 3)])
    snap = CSRGraph.from_multigraph(graph)
    for classes in ([[0, 1, 2]], [[3], [0, 1, 2]], [[0, 1], [3, 4]]):
        with pytest.raises(GraphError):
            rooted_forest_class_depths(
                snap, [snap.edge_positions(eids) for eids in classes]
            )


# ----------------------------------------------------------------------
# Threshold-peel work-list (the h_partition wave loop)
# ----------------------------------------------------------------------


def _assert_peel_matches(graph, threshold):
    """Kernel == reference H-partition classes and charged rounds."""
    ref_rounds = RoundCounter()
    ref = ref_peel.h_partition(graph, threshold, ref_rounds)
    rounds = RoundCounter()
    got = h_partition(graph, threshold, rounds)
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
    must decrement once per copy), a 40 x 40 grid at t = 2, and a random
    40-vertex multigraph at its degeneracy."""
    from repro.graph.generators import grid_graph

    chain = MultiGraph.with_vertices(12)
    for i in range(11):
        for _ in range(1 + i % 3):  # 1-3 parallel copies per pair
            chain.add_edge(i, i + 1)
    rng = random.Random(77)
    dense = MultiGraph.with_vertices(40)
    for _ in range(90):
        dense.add_edge(*rng.sample(range(40), 2))
    cases = (
        (chain, 3),
        (grid_graph(40, 40), 2),
        (dense, max(1, degeneracy_ordering(dense)[0])),
    )
    for graph, threshold in cases:
        ref = _assert_peel_matches(graph, threshold)
        assert ref.num_classes > 1  # a real wave cascade, not one wave


def test_h_partition_sharded_empty_and_tiny_graphs():
    """The csr peel (which ran under the retired ``sharded`` name) on
    the empty graph and a single vertex."""
    empty = MultiGraph()
    assert h_partition(empty, 1).classes == {}
    single = MultiGraph.with_vertices(1)
    assert h_partition(single, 1).classes == \
        ref_peel.h_partition(single, 1).classes


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


# ----------------------------------------------------------------------
# Traversal entry points and the stacked depth cut
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(0, 200, 10))
def test_parallel_traversal_matches_reference(seed):
    """Kernel == reference (the kernel ran under the retired
    ``parallel`` name) for the BFS-shaped entry points."""
    graph = random_multigraph(seed)
    vertices = graph.vertices()
    sources = vertices[: max(1, len(vertices) // 4)]

    assert bfs_distances(graph, sources) == \
        ref_traversal.bfs_distances(graph, sources)
    assert neighborhood(graph, sources[:1], 2) == \
        ref_traversal.neighborhood(graph, sources[:1], 2)
    components = ref_traversal.connected_components(graph)
    assert connected_components(graph) == components

    assert network_decomposition(graph).classes == \
        ref_nd.network_decomposition(graph).classes

    for comp in components[:2]:
        assert diameter_of_component(graph, comp) == \
            ref_traversal.diameter_of_component(graph, comp)


@pytest.mark.parametrize("seed", range(3, 200, 16))
def test_depth_cut_backends_identical(seed):
    """depth_cut's stacked rooting (every color class in one call) cuts
    exactly the reference's edges (one ``RootedForest`` per class),
    same RNG stream, on greedy forest colorings and on colorings that
    mix small classes (1-63 edges) with full-size ones; a small class
    holding a cycle raises GraphError on both."""
    from repro.core.diameter_reduction import depth_cut

    graph = random_multigraph(seed)
    if graph.m == 0:
        pytest.skip("edgeless corpus instance")
    coloring = _greedy_forest_coloring(graph)

    mixed_graph, mixed = _mixed_size_forest_coloring(seed)
    for g, col, z in ((graph, coloring, 3), (mixed_graph, mixed, 5)):
        reference = ref_depth_cut(g, col, z=z, seed=seed)
        got = depth_cut(g, col, z=z, seed=seed)
        assert got.kept == reference.kept
        assert got.deleted == reference.deleted
        assert got.deletion_tail == reference.deletion_tail

    # Two parallel edges as one small class: not a forest.
    u, v = mixed_graph.endpoints(min(mixed))
    cyclic = dict(mixed)
    for _ in range(2):
        cyclic[mixed_graph.add_edge(u, v)] = -1
    for cut in (ref_depth_cut, depth_cut):
        with pytest.raises(GraphError):
            cut(mixed_graph, cyclic, z=5, seed=seed)


def _mixed_size_forest_coloring(seed):
    """Three full-size random forests plus a fourth split into classes
    of 1-63 edges (an edge subset of a forest is a forest)."""
    rng = random.Random(seed)
    n = 150
    graph = MultiGraph.with_vertices(n)
    coloring = {}
    for color in range(4):
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(1, n):
            coloring[graph.add_edge(perm[i], perm[rng.randrange(i)])] = color
    small = sorted(e for e, c in coloring.items() if c == 3)
    start, color = 0, 3
    while start < len(small):
        size = rng.randint(1, 63)
        for eid in small[start:start + size]:
            coloring[eid] = color
        start += size
        color += 1
    return graph, coloring


@pytest.mark.parametrize("seed", range(5, 120, 18))
def test_color_class_parallel_backend_matches_dict(seed):
    """PartialListForestDecomposition path/component queries agree
    between the reference's BFS walk and the kernel's parent walk (what
    the retired ``parallel`` name ran) under an identical mutation
    history."""
    graph = random_multigraph(seed)
    if graph.m == 0:
        pytest.skip("edgeless corpus instance")
    palettes = {eid: (0, 1, 2) for eid in graph.edge_ids()}
    rng = random.Random(seed)
    states = {
        "dict": BFSPartialListForestDecomposition(graph, palettes),
        "csr": PartialListForestDecomposition(graph, palettes),
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
        assert outcomes["dict"] == outcomes["csr"]
        probe = rng.choice(sorted(graph.edge_ids()))
        assert states["dict"].color_path(probe, color) == \
            states["csr"].color_path(probe, color)
        start = rng.choice(graph.vertices())
        assert states["dict"].color_component_vertices(start, color) == \
            states["csr"].color_component_vertices(start, color)
