"""Unit and property tests for union-find structures."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.union_find import UnionFind

from reference.list_forest_exact import RollbackUnionFind


def test_basic_union_find():
    uf = UnionFind(range(4))
    assert uf.components == 4
    assert uf.union(0, 1)
    assert not uf.union(0, 1)
    assert uf.connected(0, 1)
    assert not uf.connected(0, 2)
    assert uf.components == 3


def test_lazy_insertion():
    uf = UnionFind()
    assert uf.union("a", "b")
    assert uf.connected("a", "b")
    assert "a" in uf
    assert "z" not in uf
    assert len(uf) == 2


def test_groups():
    uf = UnionFind(range(5))
    uf.union(0, 1)
    uf.union(2, 3)
    groups = sorted(sorted(g) for g in uf.groups())
    assert groups == [[0, 1], [2, 3], [4]]


def test_transitive_connectivity():
    uf = UnionFind(range(10))
    for i in range(9):
        uf.union(i, i + 1)
    assert uf.connected(0, 9)
    assert uf.components == 1


def test_rollback_basic():
    uf = RollbackUnionFind(range(4))
    mark = uf.checkpoint()
    uf.union(0, 1)
    uf.union(1, 2)
    assert uf.connected(0, 2)
    uf.rollback(mark)
    assert not uf.connected(0, 1)
    assert not uf.connected(1, 2)
    assert uf.components == 4


def test_rollback_partial():
    uf = RollbackUnionFind(range(4))
    uf.union(0, 1)
    mark = uf.checkpoint()
    uf.union(2, 3)
    uf.rollback(mark)
    assert uf.connected(0, 1)
    assert not uf.connected(2, 3)


def test_rollback_noop_unions():
    uf = RollbackUnionFind(range(3))
    uf.union(0, 1)
    mark = uf.checkpoint()
    uf.union(0, 1)  # no-op
    uf.union(1, 2)
    uf.rollback(mark)
    assert uf.connected(0, 1)
    assert not uf.connected(1, 2)


def test_rollback_bad_checkpoint():
    uf = RollbackUnionFind(range(2))
    with pytest.raises(ValueError):
        uf.rollback(10)


@settings(max_examples=50)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 19), st.integers(0, 19)), min_size=0, max_size=60
    ),
    split=st.integers(0, 60),
)
def test_rollback_matches_replay(ops, split):
    """Rolling back to a checkpoint must equal replaying the prefix."""
    split = min(split, len(ops))
    rb = RollbackUnionFind(range(20))
    for a, b in ops[:split]:
        rb.union(a, b)
    mark = rb.checkpoint()
    for a, b in ops[split:]:
        rb.union(a, b)
    rb.rollback(mark)

    ref = UnionFind(range(20))
    for a, b in ops[:split]:
        ref.union(a, b)

    for a in range(20):
        for b in range(a + 1, 20):
            assert rb.connected(a, b) == ref.connected(a, b)
    assert rb.components == ref.components


@settings(max_examples=30)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 14), st.integers(0, 14)), min_size=0, max_size=40
    )
)
def test_union_find_matches_bruteforce(ops):
    """UnionFind connectivity must match a brute-force reachability check."""
    uf = UnionFind(range(15))
    adj = {i: set() for i in range(15)}
    for a, b in ops:
        uf.union(a, b)
        adj[a].add(b)
        adj[b].add(a)

    def reachable(s, t):
        seen, stack = {s}, [s]
        while stack:
            v = stack.pop()
            if v == t:
                return True
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return s == t

    rng = random.Random(0)
    for _ in range(30):
        a, b = rng.randrange(15), rng.randrange(15)
        assert uf.connected(a, b) == reachable(a, b)
