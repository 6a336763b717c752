"""Tests for exact pseudoarboricity and orientations."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import MultiGraph
from repro.graph.generators import (
    add_parallel_copies,
    complete_graph,
    cycle_graph,
    line_multigraph,
    path_graph,
    random_regular_multigraph,
    star_graph,
    union_of_random_forests,
)
from repro.decomposition import degeneracy_ordering
from repro.nashwilliams import (
    exact_arboricity,
    exact_pseudoarboricity,
    exact_pseudoarboricity_with_orientation,
    orientation_exists,
    out_degrees,
    pseudoforest_decomposition_from_orientation,
)


def check_orientation(graph, orientation, k):
    assert set(orientation.keys()) == set(graph.edge_ids())
    for eid, tail in orientation.items():
        assert tail in graph.endpoints(eid)
    for v, d in out_degrees(graph, orientation).items():
        assert d <= k


def test_path_pseudoarboricity_one():
    g = path_graph(6)
    assert exact_pseudoarboricity(g) == 1


def test_cycle_pseudoarboricity_one():
    # A cycle is one pseudoforest but needs two forests.
    g = cycle_graph(6)
    assert exact_pseudoarboricity(g) == 1
    assert exact_arboricity(g) == 2


def test_orientation_witness():
    g = cycle_graph(6)
    k, orientation = exact_pseudoarboricity_with_orientation(g)
    assert k == 1
    check_orientation(g, orientation, 1)


def test_orientation_exists_infeasible():
    g = complete_graph(5)  # m=10, n=5: out-degree 1 gives only 5 units
    assert orientation_exists(g, 1) is None
    witness = orientation_exists(g, 2)
    assert witness is not None
    check_orientation(g, witness, 2)


def test_orientation_negative_k():
    with pytest.raises(GraphError):
        orientation_exists(path_graph(3), -1)


def test_orientation_empty_graph():
    g = MultiGraph.with_vertices(3)
    assert orientation_exists(g, 0) == {}
    assert exact_pseudoarboricity(g) == 0


def test_line_multigraph():
    # Two vertices, 4 parallel edges: 2 oriented out of each endpoint.
    g = line_multigraph(2, 4)
    assert exact_pseudoarboricity(g) == 2
    # Longer line: density 16/5 forces alpha* = 4.
    g5 = line_multigraph(5, 4)
    assert exact_pseudoarboricity(g5) == 4


def test_star_pseudoarboricity():
    g = star_graph(10)
    assert exact_pseudoarboricity(g) == 1


def test_pseudoforest_decomposition():
    g = complete_graph(6)
    k, orientation = exact_pseudoarboricity_with_orientation(g)
    coloring = pseudoforest_decomposition_from_orientation(g, orientation)
    assert set(coloring.keys()) == set(g.edge_ids())
    assert max(coloring.values()) < k
    # Each class has <= 1 out-edge per vertex: a functional graph.
    for index in set(coloring.values()):
        tails = [orientation[e] for e, c in coloring.items() if c == index]
        assert len(tails) == len(set(tails))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000))
def test_sandwich_bounds(seed):
    """alpha* <= alpha <= 2 alpha* (Section 1)."""
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    g = MultiGraph.with_vertices(n)
    for _ in range(rng.randint(0, 14)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    alpha = exact_arboricity(g)
    pseudo = exact_pseudoarboricity(g)
    assert pseudo <= alpha <= max(2 * pseudo, pseudo + (1 if pseudo else 0))
    if g.m:
        assert pseudo >= 1


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 100_000))
def test_density_lower_bound(seed):
    """alpha* >= ceil(|E(H)|/|V(H)|) for every induced subgraph H."""
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    g = MultiGraph.with_vertices(n)
    for _ in range(rng.randint(1, 12)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    pseudo = exact_pseudoarboricity(g)
    edges = [(u, v) for _e, u, v in g.edges()]
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            inside = set(subset)
            count = sum(1 for u, v in edges if u in inside and v in inside)
            assert pseudo >= math.ceil(count / size)


def test_simple_graph_relation():
    """For simple graphs alpha <= alpha* + 1 [PQ82]."""
    for seed in range(5):
        g = union_of_random_forests(15, 3, seed=seed, simple=True)
        alpha = exact_arboricity(g)
        pseudo = exact_pseudoarboricity(g)
        assert alpha <= pseudo + 1


# ---------------------------------------------------------------------------
# The path-reversal value against oracles that share no code with it
# ---------------------------------------------------------------------------


def brute_force_pseudoarboricity(graph):
    """max over vertex subsets H of ceil(|E(H)| / |V(H)|) (Hakimi)."""
    vertices = list(graph.vertices())
    edges = [(u, v) for _eid, u, v in graph.edges()]
    best = 0
    for size in range(1, len(vertices) + 1):
        for subset in itertools.combinations(vertices, size):
            inside = set(subset)
            count = sum(1 for u, v in edges if u in inside and v in inside)
            best = max(best, -(-count // size))
    return best


def binary_search_pseudoarboricity(graph):
    """The flow binary search exact_pseudoarboricity used to run."""
    if graph.m == 0:
        return 0, {}
    low = max(1, math.ceil(graph.m / graph.n))
    high = graph.max_degree()
    best = None
    while low < high:
        mid = (low + high) // 2
        witness = orientation_exists(graph, mid)
        if witness is None:
            low = mid + 1
        else:
            high = mid
            best = witness
    if best is None:
        best = orientation_exists(graph, low)
    return low, best


@st.composite
def multigraphs(draw, max_n=12):
    """Random multigraphs: parallel edges, gappy vertex ids, optionally
    an edge_subgraph of the drawn graph, or a dense family (parallel
    cliques, random regular multigraphs) where the degeneracy exceeds
    the pseudoarboricity, so the reversal loop runs."""
    family = draw(st.sampled_from(["random", "clique", "regular"]))
    if family == "clique":
        base = add_parallel_copies(
            complete_graph(draw(st.integers(3, min(8, max_n)))),
            draw(st.integers(1, 3)),
        )
        edges = [(u, v) for _e, u, v in base.edges()]
        n = base.n
    elif family == "regular":
        n = draw(st.integers(2, max_n // 2)) * 2
        base = random_regular_multigraph(
            n, draw(st.integers(3, 6)), seed=draw(st.integers(0, 10_000))
        )
        edges = [(u, v) for _e, u, v in base.edges()]
    else:
        n = draw(st.integers(1, max_n))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = [
            (u, v)
            for u, v in draw(st.lists(pairs, max_size=4 * n))
            if u != v
        ]
    ids = list(range(n))
    if draw(st.booleans()):
        ids = draw(
            st.lists(
                st.integers(0, 10 * n + 10), min_size=n, max_size=n, unique=True
            )
        )
    graph = MultiGraph()
    for vertex in ids:
        graph.add_vertex(vertex)
    for u, v in edges:
        graph.add_edge(ids[u], ids[v])
    if graph.m and draw(st.booleans()):
        doomed = draw(st.sets(st.sampled_from(sorted(graph.edge_ids()))))
        graph = graph.edge_subgraph(
            eid for eid in graph.edge_ids() if eid not in doomed
        )
    return graph


@settings(max_examples=150, deadline=None)
@given(multigraphs(max_n=8))
def test_pseudoarboricity_matches_brute_force_density(graph):
    assert exact_pseudoarboricity(graph) == brute_force_pseudoarboricity(graph)


@settings(max_examples=150, deadline=None)
@given(multigraphs())
def test_pseudoarboricity_is_least_feasible_orientation_bound(graph):
    pseudo = exact_pseudoarboricity(graph)
    witness = orientation_exists(graph, pseudo)
    assert witness is not None
    check_orientation(graph, witness, pseudo)
    if pseudo > 0:
        assert orientation_exists(graph, pseudo - 1) is None


@pytest.mark.parametrize(
    "graph",
    [
        complete_graph(9),
        add_parallel_copies(complete_graph(6), 3),
        random_regular_multigraph(40, 7, seed=3),
    ],
    ids=["K9", "K6x3", "regular7"],
)
def test_dense_families_run_the_reversal_loop(graph):
    # The peel orientation starts at out-degree d > alpha*, so the
    # value is reached only by reversing paths.
    pseudo = exact_pseudoarboricity(graph)
    assert degeneracy_ordering(graph)[0] > pseudo
    assert orientation_exists(graph, pseudo) is not None
    assert orientation_exists(graph, pseudo - 1) is None


@pytest.mark.parametrize("seed", range(12))
def test_witness_matches_old_binary_search(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 30)
    graph = MultiGraph.with_vertices(n)
    for _ in range(rng.randint(1, 5 * n)):
        u, v = rng.sample(range(n), 2)
        graph.add_edge(u, v)
    if seed % 3 == 0:
        graph = graph.edge_subgraph(
            eid for eid in graph.edge_ids() if rng.random() < 0.6
        )
    assert exact_pseudoarboricity_with_orientation(
        graph
    ) == binary_search_pseudoarboricity(graph)


def test_long_augmenting_paths_do_not_recurse():
    # A path plus the chord (0, 2): the triangle's spare out-degree must
    # travel the whole path, an augmenting path of ~n arcs in the flow.
    n = 3000
    graph = path_graph(n)
    graph.add_edge(0, 2)
    assert exact_pseudoarboricity(graph) == 1
    witness = orientation_exists(graph, 1)
    assert witness is not None
    check_orientation(graph, witness, 1)
