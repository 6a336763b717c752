"""Tests for Dinic max-flow and Hopcroft-Karp matching."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.flow import FlowNetwork
from repro.graph.matching import greedy_matching, hopcroft_karp, maximum_matching_size


def test_flow_simple_path():
    net = FlowNetwork()
    net.add_arc("s", "a", 3)
    net.add_arc("a", "t", 2)
    assert net.max_flow("s", "t") == 2


def test_flow_parallel_paths():
    net = FlowNetwork()
    net.add_arc("s", "a", 1)
    net.add_arc("s", "b", 1)
    net.add_arc("a", "t", 1)
    net.add_arc("b", "t", 1)
    assert net.max_flow("s", "t") == 2


def test_flow_needs_residual_routing():
    # Classic diamond where a greedy path must be partially undone.
    net = FlowNetwork()
    net.add_arc("s", "a", 1)
    net.add_arc("s", "b", 1)
    net.add_arc("a", "b", 1)
    net.add_arc("a", "t", 1)
    net.add_arc("b", "t", 1)
    assert net.max_flow("s", "t") == 2


def test_flow_disconnected():
    net = FlowNetwork()
    net.add_arc("s", "a", 5)
    net.add_arc("b", "t", 5)
    assert net.max_flow("s", "t") == 0


def test_flow_unknown_vertices():
    net = FlowNetwork()
    assert net.max_flow("s", "t") == 0


def test_flow_source_equals_sink():
    net = FlowNetwork()
    net.add_arc("s", "t", 1)
    with pytest.raises(GraphError):
        net.max_flow("s", "s")


def test_negative_capacity_rejected():
    net = FlowNetwork()
    with pytest.raises(GraphError):
        net.add_arc("a", "b", -1)


def test_flow_on_arc():
    net = FlowNetwork()
    a0 = net.add_arc("s", "a", 3)
    a1 = net.add_arc("a", "t", 2)
    net.max_flow("s", "t")
    assert net.flow_on(a0) == 2
    assert net.flow_on(a1) == 2


def test_min_cut_side():
    net = FlowNetwork()
    net.add_arc("s", "a", 1)
    net.add_arc("a", "t", 10)
    net.max_flow("s", "t")
    side = net.min_cut_side("s")
    assert "s" in side
    assert "t" not in side


def brute_force_max_flow(arcs, s, t):
    """Exponential-time max-flow via min-cut enumeration (integer caps)."""
    vertices = sorted({u for u, _, _ in arcs} | {v for _, v, _ in arcs} | {s, t})
    others = [v for v in vertices if v not in (s, t)]
    best = None
    for r in range(len(others) + 1):
        for subset in itertools.combinations(others, r):
            side = {s} | set(subset)
            cut = sum(c for u, v, c in arcs if u in side and v not in side)
            best = cut if best is None else min(best, cut)
    return best if best is not None else 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_flow_matches_bruteforce_mincut(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    vertices = [f"v{i}" for i in range(n)]
    arcs = []
    for u in vertices:
        for v in vertices:
            if u != v and rng.random() < 0.5:
                arcs.append((u, v, rng.randint(0, 4)))
    net = FlowNetwork()
    for u, v, c in arcs:
        net.add_arc(u, v, c)
    got = net.max_flow("v0", f"v{n-1}")
    want = brute_force_max_flow(arcs, "v0", f"v{n-1}")
    assert got == want


def test_matching_perfect():
    adj = [[0, 1], [0], [1, 2]]
    match_left, match_right = hopcroft_karp(adj)
    assert len(match_left) == 3
    for i, r in match_left.items():
        assert match_right[r] == i
        assert r in adj[i]


def test_matching_bottleneck():
    # Three left nodes all adjacent only to right node 0.
    adj = [[0], [0], [0]]
    assert maximum_matching_size(adj) == 1


def test_matching_empty():
    assert maximum_matching_size([]) == 0
    assert maximum_matching_size([[], []]) == 0


def test_greedy_matching_valid():
    adj = [[0, 1], [0], [1]]
    match = greedy_matching(adj)
    used = list(match.values())
    assert len(used) == len(set(used))
    for i, r in match.items():
        assert r in adj[i]


def matching_size_via_flow(adj):
    net = FlowNetwork()
    rights = {r for options in adj for r in options}
    for i, options in enumerate(adj):
        net.add_arc("s", ("L", i), 1)
        for r in options:
            net.add_arc(("L", i), ("R", r), 1)
    for r in rights:
        net.add_arc(("R", r), "t", 1)
    return net.max_flow("s", "t")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_matching_matches_flow(seed):
    rng = random.Random(seed)
    n_left = rng.randint(0, 7)
    n_right = rng.randint(1, 7)
    adj = [
        [r for r in range(n_right) if rng.random() < 0.4] for _ in range(n_left)
    ]
    got = maximum_matching_size(adj)
    want = matching_size_via_flow(adj)
    assert got == want
    # Greedy is a 1/2-approximation of maximum.
    assert len(greedy_matching(adj)) >= (got + 1) // 2


def recursive_dinic(net, s, t):
    """The recursive Dinic FlowNetwork.max_flow used to run, on ``net``'s
    arrays: the iterative push must visit arcs in the same order."""
    from collections import deque

    adj, head, cap = net._adj, net._head, net._cap
    n = len(adj)

    def push(u, limit, level, next_arc):
        if u == t:
            return limit
        while next_arc[u] < len(adj[u]):
            arc = adj[u][next_arc[u]]
            v = head[arc]
            if cap[arc] > 0 and level[v] == level[u] + 1:
                pushed = push(v, min(limit, cap[arc]), level, next_arc)
                if pushed > 0:
                    cap[arc] -= pushed
                    cap[arc ^ 1] += pushed
                    return pushed
            next_arc[u] += 1
        return 0

    total = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for arc in adj[u]:
                if cap[arc] > 0 and level[head[arc]] < 0:
                    level[head[arc]] = level[u] + 1
                    queue.append(head[arc])
        if level[t] < 0:
            return total
        next_arc = [0] * n
        while True:
            pushed = push(s, float("inf"), level, next_arc)
            if pushed == 0:
                break
            total += pushed


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_flow_residuals_match_recursive_dinic(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    arcs = [
        (u, v, rng.randint(0, 4))
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < 0.4
    ]
    nets = [FlowNetwork(), FlowNetwork()]
    for net in nets:
        for u, v, c in arcs:
            net.add_arc(u, v, c)
        net.add_arc(0, 0, 0)  # register the source even without arcs
        net.add_arc(n - 1, n - 1, 0)
    got = nets[0].max_flow(0, n - 1)
    want = recursive_dinic(nets[1], nets[1]._index[0], nets[1]._index[n - 1])
    assert got == want
    assert nets[0]._cap == nets[1]._cap


def test_flow_long_augmenting_path():
    # One augmenting path of 5000 arcs: deeper than the recursion limit.
    net = FlowNetwork()
    for i in range(5000):
        net.add_arc(i, i + 1, 1)
    assert net.max_flow(0, 5000) == 1
