"""Unit tests for the MultiGraph substrate."""

import random

import pytest

from repro.errors import GraphError
from repro.graph import CSRGraph, MultiGraph, snapshot_of


def test_empty_graph():
    g = MultiGraph()
    assert g.n == 0
    assert g.m == 0
    assert g.vertices() == []
    assert g.edge_ids() == []
    assert g.max_degree() == 0


def test_with_vertices():
    g = MultiGraph.with_vertices(5)
    assert g.n == 5
    assert g.vertices() == [0, 1, 2, 3, 4]


def test_add_edge_returns_sequential_ids():
    g = MultiGraph.with_vertices(3)
    e0 = g.add_edge(0, 1)
    e1 = g.add_edge(1, 2)
    assert (e0, e1) == (0, 1)
    assert g.endpoints(0) == (0, 1)
    assert g.endpoints(1) == (1, 2)


def test_parallel_edges_have_distinct_ids():
    g = MultiGraph.with_vertices(2)
    e0 = g.add_edge(0, 1)
    e1 = g.add_edge(0, 1)
    assert e0 != e1
    assert g.multiplicity(0, 1) == 2
    assert sorted(g.edges_between(0, 1)) == [e0, e1]
    assert g.m == 2
    assert not g.is_simple()


def test_self_loop_rejected():
    g = MultiGraph.with_vertices(2)
    with pytest.raises(GraphError):
        g.add_edge(1, 1)


def test_unknown_vertex_rejected():
    g = MultiGraph.with_vertices(2)
    with pytest.raises(GraphError):
        g.add_edge(0, 7)


def test_degree_counts_parallels():
    g = MultiGraph.with_vertices(3)
    g.add_edge(0, 1)
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    assert g.degree(0) == 3
    assert g.degree(1) == 2
    assert g.degree(2) == 1
    assert g.max_degree() == 3


def test_neighbors_distinct():
    g = MultiGraph.with_vertices(3)
    g.add_edge(0, 1)
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    assert sorted(g.neighbors(0)) == [1, 2]


def test_incident_edges():
    g = MultiGraph.with_vertices(3)
    e0 = g.add_edge(0, 1)
    e1 = g.add_edge(0, 1)
    e2 = g.add_edge(1, 2)
    assert sorted(g.incident_edges(1)) == sorted([e0, e1, e2])
    pairs = sorted(g.incident(1))
    assert (e2, 2) in pairs


def test_other_endpoint():
    g = MultiGraph.with_vertices(2)
    e = g.add_edge(0, 1)
    assert g.other_endpoint(e, 0) == 1
    assert g.other_endpoint(e, 1) == 0
    g.add_vertex()
    with pytest.raises(GraphError):
        g.other_endpoint(e, 2)


def test_remove_edge():
    g = MultiGraph.with_vertices(2)
    e0 = g.add_edge(0, 1)
    e1 = g.add_edge(0, 1)
    g.remove_edge(e0)
    assert g.m == 1
    assert g.multiplicity(0, 1) == 1
    assert not g.has_edge(e0)
    assert g.has_edge(e1)
    with pytest.raises(GraphError):
        g.remove_edge(e0)


def test_edge_ids_stable_after_removal():
    g = MultiGraph.with_vertices(3)
    g.add_edge(0, 1)
    g.remove_edge(0)
    e = g.add_edge(1, 2)
    assert e == 1  # ids never reused


def test_copy_is_deep():
    g = MultiGraph.with_vertices(3)
    g.add_edge(0, 1)
    clone = g.copy()
    clone.add_edge(1, 2)
    assert g.m == 1
    assert clone.m == 2
    assert clone.endpoints(0) == g.endpoints(0)


def test_edge_subgraph_preserves_ids():
    g = MultiGraph.with_vertices(4)
    e0 = g.add_edge(0, 1)
    e1 = g.add_edge(1, 2)
    e2 = g.add_edge(2, 3)
    sub = g.edge_subgraph([e0, e2])
    assert sub.m == 2
    assert sub.endpoints(e0) == (0, 1)
    assert sub.endpoints(e2) == (2, 3)
    assert not sub.has_edge(e1)
    assert sub.n == 4  # vertices all kept


def test_induced_subgraph():
    g = MultiGraph.with_vertices(4)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    sub = g.induced_subgraph([0, 1, 2])
    assert sub.n == 3
    assert sub.m == 2
    assert not sub.has_vertex(3)


def test_without_edges():
    g = MultiGraph.with_vertices(3)
    e0 = g.add_edge(0, 1)
    e1 = g.add_edge(1, 2)
    sub = g.without_edges([e0])
    assert sub.m == 1
    assert sub.has_edge(e1)


def test_from_edges():
    g = MultiGraph.from_edges(3, [(0, 1), (1, 2), (0, 1)])
    assert g.n == 3
    assert g.m == 3
    assert g.multiplicity(0, 1) == 2


def test_equality():
    a = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    b = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    c = MultiGraph.from_edges(3, [(0, 1)])
    assert a == b
    assert a != c


def test_unhashable():
    g = MultiGraph()
    with pytest.raises(TypeError):
        hash(g)


def test_is_simple():
    g = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    assert g.is_simple()
    g.add_edge(0, 1)
    assert not g.is_simple()


@pytest.mark.parametrize("seed", range(20))
def test_snapshot_is_simple_agrees(seed):
    """The snapshot's memoized answer equals the adjacency walk, on
    gappy vertex ids, reversed parallel pairs and after a mutation
    (which makes a new snapshot)."""
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    g = MultiGraph()
    ids = rng.sample(range(5 * n), n)
    for vertex in ids:
        g.add_vertex(vertex)
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(ids, 2)
        if rng.random() < 0.9 and g.multiplicity(u, v):
            continue
        g.add_edge(u, v)
    snapshot = snapshot_of(g)
    assert snapshot.is_simple() == g.is_simple()
    assert snapshot.is_simple() is snapshot.is_simple()
    if g.m:
        _eid, u, v = next(iter(g.edges()))
        g.add_edge(v, u)
        assert not g.is_simple()
        assert not snapshot_of(g).is_simple()


def test_ingested_snapshot_is_simple():
    pairs = [(0, 1), (2, 1), (1, 0)]
    assert not CSRGraph.from_edge_iter(pairs, n=3).is_simple()
    assert CSRGraph.from_edge_iter(pairs[:2], n=3).is_simple()


def test_add_named_vertex():
    g = MultiGraph()
    assert g.add_vertex(5) == 5
    assert g.add_vertex() == 6
    with pytest.raises(GraphError):
        g.add_vertex(5)
