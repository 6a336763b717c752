"""Tests for the exact matroid-partition forest decomposition."""

import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecompositionError
from repro.graph import MultiGraph, is_forest
from repro.graph.generators import (
    add_parallel_copies,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    line_multigraph,
    preferential_attachment,
    star_graph,
    union_of_random_forests,
)
from repro.nashwilliams import (
    exact_arboricity,
    exact_forest_decomposition,
    exact_forest_partition,
    nash_williams_density_exact,
)
from repro.nashwilliams import arboricity as arboricity_module

from test_kernel_equivalence import SEEDS, random_multigraph


def check_valid_fd(graph, coloring, num_forests):
    assert set(coloring.keys()) == set(graph.edge_ids())
    by_color = {}
    for eid, c in coloring.items():
        assert 0 <= c < num_forests
        by_color.setdefault(c, []).append(eid)
    for eids in by_color.values():
        assert is_forest(graph, eids)


def test_empty_graph():
    g = MultiGraph.with_vertices(4)
    result = exact_forest_partition(g)
    assert result.num_forests == 0
    assert result.coloring == {}


def test_single_edge():
    g = MultiGraph.from_edges(2, [(0, 1)])
    assert exact_arboricity(g) == 1


def test_tree_arboricity_one():
    g = star_graph(8)
    result = exact_forest_partition(g)
    assert result.num_forests == 1
    check_valid_fd(g, result.coloring, 1)


def test_cycle_arboricity_two():
    g = cycle_graph(5)
    assert exact_arboricity(g) == 2


def test_parallel_pair():
    g = MultiGraph.from_edges(2, [(0, 1), (0, 1)])
    assert exact_arboricity(g) == 2


def test_line_multigraph_arboricity():
    g = line_multigraph(6, 4)
    result = exact_forest_partition(g)
    assert result.num_forests == 4
    check_valid_fd(g, result.coloring, 4)


def test_complete_graph_arboricity():
    # alpha(K_n) = ceil(n/2).
    for n in (3, 4, 5, 6, 7):
        assert exact_arboricity(complete_graph(n)) == math.ceil(n / 2)


def test_grid_arboricity_two():
    g = grid_graph(4, 4)
    assert exact_arboricity(g) == 2


def test_forest_union_exact():
    g = union_of_random_forests(25, 3, seed=11)
    result = exact_forest_partition(g)
    # m = 3(n-1) forces alpha >= 3; union of 3 forests gives alpha <= 3.
    assert result.num_forests == 3
    check_valid_fd(g, result.coloring, 3)


def test_max_forests_cap():
    g = complete_graph(6)  # alpha = 3
    with pytest.raises(DecompositionError):
        exact_forest_partition(g, max_forests=2)


def test_exact_forest_decomposition_wrapper():
    g = cycle_graph(4)
    coloring = exact_forest_decomposition(g)
    check_valid_fd(g, coloring, 2)


def test_classes_view():
    g = cycle_graph(4)
    result = exact_forest_partition(g)
    classes = result.classes()
    assert sum(len(v) for v in classes.values()) == g.m


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000))
def test_matches_nash_williams_density(seed):
    """alpha from matroid partition == brute-force Nash-Williams bound."""
    import random

    rng = random.Random(seed)
    n = rng.randint(2, 7)
    g = MultiGraph.with_vertices(n)
    m = rng.randint(0, 12)
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    result = exact_forest_partition(g)
    check_valid_fd(g, result.coloring, max(result.num_forests, 1))
    assert result.num_forests == nash_williams_density_exact(g)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 100_000))
def test_er_graphs_valid(seed):
    g = erdos_renyi(15, 0.3, seed=seed)
    result = exact_forest_partition(g)
    check_valid_fd(g, result.coloring, max(result.num_forests, 1))


# -- witness pin ----------------------------------------------------------
#
# A test-local copy of the matroid partition as it stood with a dict BFS
# per path query.  The link/cut forests must reproduce its coloring
# exactly: paths in a forest are unique, so the exchange search visits
# the same edges in the same order.


def _bfs_path(adj, source, target):
    """Edge ids on the tree path, target -> source, or None."""
    if source == target:
        return []
    if source not in adj or target not in adj:
        return None
    parent = {source: (source, -1)}
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        for eid, other in adj.get(vertex, ()):
            if other not in parent:
                parent[other] = (vertex, eid)
                if other == target:
                    path = []
                    walk = target
                    while walk != source:
                        walk, via = parent[walk]
                        path.append(via)
                    return path
                queue.append(other)
    return None


def _reference_partition(graph):
    forests = [{}]  # per forest: vertex -> list of (eid, other)
    color_of = {}

    def add(forest, eid):
        u, v = graph.endpoints(eid)
        forest.setdefault(u, []).append((eid, v))
        forest.setdefault(v, []).append((eid, u))

    def remove(forest, eid):
        for vertex in graph.endpoints(eid):
            forest[vertex] = [(e, w) for e, w in forest[vertex] if e != eid]

    def try_insert(new_edge):
        predecessor = {}
        visited = {new_edge}
        queue = deque([new_edge])
        while queue:
            edge = queue.popleft()
            u, v = graph.endpoints(edge)
            for color, forest in enumerate(forests):
                if color_of.get(edge) == color:
                    continue
                cycle = _bfs_path(forest, u, v)
                if cycle is None:
                    chain = [(edge, color)]
                    while edge in predecessor:
                        edge, via_color = predecessor[edge]
                        chain.append((edge, via_color))
                    for eid, target in chain:
                        old = color_of.get(eid)
                        if old is not None:
                            remove(forests[old], eid)
                        add(forests[target], eid)
                        color_of[eid] = target
                    return True
                for blocked in cycle:
                    if blocked not in visited:
                        visited.add(blocked)
                        predecessor[blocked] = (edge, color)
                        queue.append(blocked)
        return False

    for eid in graph.edge_ids():
        while not try_insert(eid):
            forests.append({})
    return color_of, len(forests) if graph.m else 0


def _pin_graph(seed):
    import random

    rng = random.Random(seed * 6151 + 29)
    n = rng.randint(3, 30)
    ids = sorted(rng.sample(range(4 * n), n))
    g = MultiGraph()
    for vertex in ids:
        g.add_vertex(vertex)
    pairs = []
    for _ in range(rng.randint(n, 4 * n)):
        if pairs and rng.random() < 0.3:
            u, v = rng.choice(pairs)  # parallel copy
        else:
            u, v = rng.sample(ids, 2)
        pairs.append((u, v))
        g.add_edge(u, v)
    for eid in rng.sample(g.edge_ids(), g.m // 5):
        g.remove_edge(eid)
    return g


@pytest.mark.parametrize("seed", range(50))
def test_coloring_matches_dict_bfs_reference(seed):
    g = _pin_graph(seed)
    result = exact_forest_partition(g)
    coloring, num_forests = _reference_partition(g)
    assert result.coloring == coloring
    assert list(result.coloring) == list(coloring)
    assert result.num_forests == num_forests


# -- the bound sandwich against the matroid ------------------------------


def _matroid_alpha(graph):
    return exact_forest_partition(graph).num_forests


@pytest.mark.parametrize("seed", SEEDS)
def test_sandwich_matches_matroid_on_corpus(seed):
    graph = random_multigraph(seed)
    assert exact_arboricity(graph) == _matroid_alpha(graph)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sandwich_matches_matroid_on_bundles(seed):
    """Multigraphs with parallel bundles, where ``p + 1`` is no bound."""
    rng = random.Random(seed)
    if rng.random() < 0.3:
        graph = line_multigraph(rng.randint(2, 8), rng.randint(1, 5))
    else:
        base = MultiGraph.with_vertices(rng.randint(2, 9))
        for _ in range(rng.randint(0, 2 * base.n)):
            base.add_edge(*rng.sample(range(base.n), 2))
        graph = add_parallel_copies(base, rng.randint(1, 3))
    u, v = rng.sample(graph.vertices(), 2)
    for _ in range(rng.randint(0, 5)):
        graph.add_edge(u, v)
    assert exact_arboricity(graph) == _matroid_alpha(graph)


@pytest.mark.parametrize("n", range(2, 11))
def test_sandwich_matches_matroid_on_cliques(n):
    graph = complete_graph(n)
    assert exact_arboricity(graph) == _matroid_alpha(graph) == math.ceil(n / 2)


def _path_with_bundle():
    """A 10-vertex path whose middle pair carries 4 parallel edges:
    L = 2 (p and ⌈12/9⌉) but α = d = 4."""
    graph = MultiGraph.from_edges(10, [(i, i + 1) for i in range(9)])
    for _ in range(3):
        graph.add_edge(4, 5)
    return graph


@pytest.mark.parametrize(
    "graph,matroid_calls",
    [
        (preferential_attachment(2000, 3, seed=1), 0),
        (line_multigraph(12, 3), 0),
        (complete_graph(5), 0),
        (complete_graph(4), 1),  # L = 2 < U = 3
        (add_parallel_copies(complete_graph(3), 2), 1),  # L = 3 < U = 4
        (_path_with_bundle(), 1),
    ],
    ids=["pa2000", "line12x3", "K5", "K4", "K3x2", "path-bundle"],
)
def test_sandwich_and_fallback_are_both_reached(
    monkeypatch, graph, matroid_calls
):
    calls = []

    def counting(g, *args, **kwargs):
        calls.append(g)
        return exact_forest_partition(g, *args, **kwargs)

    monkeypatch.setattr(arboricity_module, "exact_forest_partition", counting)
    alpha = exact_arboricity(graph)
    assert len(calls) == matroid_calls
    assert alpha == _matroid_alpha(graph)
