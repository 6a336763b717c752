"""Tests for the link/cut forest against a brute-force edge-set oracle,
the guard that keeps it out of the validators, and the guard that keeps
the dict ``RootedForest`` out of the library's kernel paths."""

import ast
import importlib
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.dynforest import DynamicForest

# Gappy, unordered vertex ids: the forest must not assume 0..n-1.
VERTICES = [0, 3, 7, 8, 14, 15, 40, 41, 99]


class EdgeSetOracle:
    """A forest as a plain edge set; every query is a fresh BFS."""

    def __init__(self):
        self.edges = {}

    def _bfs(self, start):
        parent = {start: (start, -1)}
        queue = deque([start])
        while queue:
            vertex = queue.popleft()
            for eid, (a, b) in sorted(self.edges.items()):
                if vertex in (a, b):
                    other = b if vertex == a else a
                    if other not in parent:
                        parent[other] = (vertex, eid)
                        queue.append(other)
        return parent

    def touched(self, vertex):
        return any(vertex in ends for ends in self.edges.values())

    def path(self, u, v):
        if not self.touched(u) or not self.touched(v):
            return None
        parent = self._bfs(u)
        if v not in parent:
            return None
        path = []
        while v != u:
            v, eid = parent[v]
            path.append(eid)
        path.reverse()
        return path

    def component(self, vertex):
        return set(self._bfs(vertex))


def assert_agrees(forest, oracle):
    assert forest.edges == oracle.edges
    for u in VERTICES:
        assert (u in forest.adj) == oracle.touched(u)
        assert forest.component(u) == oracle.component(u)
        for v in VERTICES:
            expected = oracle.path(u, v)
            assert forest.path(u, v) == expected
            assert forest.connected(u, v) == (expected is not None)


def root_of(forest, vertex):
    while forest._parent[vertex] != vertex:
        vertex = forest._parent[vertex]
    return vertex


ops = st.lists(
    st.tuples(
        st.sampled_from(["link", "cut"]),
        st.sampled_from(VERTICES),
        st.sampled_from(VERTICES),
        st.integers(min_value=0, max_value=1000),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops)
def test_random_link_cut_sequences_match_oracle(sequence):
    forest = DynamicForest()
    oracle = EdgeSetOracle()
    next_eid = 0
    for op, u, v, pick in sequence:
        if op == "link":
            if u == v or oracle.path(u, v) is not None:
                with pytest.raises(GraphError):
                    forest.link(next_eid, u, v)
            else:
                forest.link(next_eid, u, v)
                oracle.edges[next_eid] = (u, v)
            next_eid += 1
        elif oracle.edges:
            eid = sorted(oracle.edges)[pick % len(oracle.edges)]
            forest.cut(eid)
            del oracle.edges[eid]
        assert_agrees(forest, oracle)


def test_parallel_edge_link_raises():
    forest = DynamicForest()
    forest.link(5, 14, 3)
    with pytest.raises(GraphError):
        forest.link(6, 3, 14)
    with pytest.raises(GraphError):
        forest.link(5, 40, 41)  # edge id already present
    assert forest.edges == {5: (14, 3)}
    assert forest.path(3, 14) == [5]
    forest.cut(5)
    forest.link(6, 3, 14)  # fine once the first copy is gone
    assert forest.path(14, 3) == [6]


def test_cut_unknown_edge_raises():
    forest = DynamicForest()
    forest.link(0, 1, 2)
    with pytest.raises(GraphError):
        forest.cut(1)


def _caterpillar():
    """Root 1 with leaf 0 and a subtree of five vertices under edge 1."""
    forest = DynamicForest()
    oracle = EdgeSetOracle()
    for eid, (u, v) in enumerate(
        [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6)]
    ):
        forest.link(eid, u, v)
        oracle.edges[eid] = (u, v)
    return forest, oracle


def _child_and_root(forest, eid):
    u, v = forest.edges[eid]
    child = u if forest._via[u] == eid else v
    return child, root_of(forest, child)


def test_cut_where_root_side_is_smaller():
    forest, oracle = _caterpillar()
    child, root = _child_and_root(forest, 1)
    forest.cut(1)
    del oracle.edges[1]
    assert len(forest.component(root)) < len(forest.component(child))
    assert_agrees(forest, oracle)
    # The larger side lost its root; its cut endpoint took over.
    assert root_of(forest, child) == child


def test_cut_where_root_side_is_larger():
    forest, oracle = _caterpillar()
    child, root = _child_and_root(forest, 4)
    assert child != root
    forest.cut(4)
    del oracle.edges[4]
    assert_agrees(forest, oracle)
    assert child not in forest.adj  # the cut leaf left the forest
    assert root_of(forest, 3) == root
    assert len(forest.component(root)) > len(forest.component(child))


def test_long_path_query_is_iterative():
    n = 2000
    forest = DynamicForest()
    for i in range(n - 1):
        forest.link(i, i, i + 1)
    assert forest.path(0, n - 1) == list(range(n - 1))
    assert forest.path(n - 1, 0) == list(range(n - 2, -1, -1))
    assert len(forest.component(n // 2)) == n
    forest.cut(n // 2)
    assert forest.path(0, n - 1) is None
    assert forest.path(0, n // 2) == list(range(n // 2))
    forest.link(n - 1, n - 1, 0)
    assert forest.path(n // 2, n // 2 + 1) == (
        list(range(n // 2 - 1, -1, -1)) + [n - 1] + list(range(n - 2, n // 2, -1))
    )


SRC_DIR = Path(__file__).resolve().parents[1] / "src"
VERIFY_DIR = SRC_DIR / "repro" / "verify"


def _imported_modules(path, package=("repro", "verify")):
    """Absolute dotted names of every module ``path`` (a module of
    ``package``) imports."""
    package = list(package)
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.append(module)
            names.extend(f"{module}.{alias.name}" for alias in node.names)
    return names


#: Kernel modules the validators must not import: the link/cut forest
#: and the Nash-Williams ground truth (its max-flow included).
KERNEL_MODULES = ("repro.graph.dynforest", "repro.nashwilliams")


def test_validators_do_not_import_the_dynamic_forest():
    """Validators must share no code with the kernels they check: they
    keep their own UnionFind/RootedForest and their own Hakimi
    assignment search."""
    # A guard entry naming a module that no longer exists guards nothing.
    for module in KERNEL_MODULES:
        importlib.import_module(module)
    files = sorted(VERIFY_DIR.glob("*.py"))
    assert files
    for path in files:
        for name in _imported_modules(path):
            assert not name.startswith(KERNEL_MODULES), (
                f"{path.name} imports {name}"
            )
    # The resolver sees the validators' real imports.
    validators = _imported_modules(VERIFY_DIR / "validators.py")
    assert "repro.graph.union_find.UnionFind" in validators


#: The modules that may use the dict ``RootedForest``: the validators
#: (their independent rooting), its home package, CUT's preferred-root
#: ring BFS and ``random_sparse_cut``'s correction pass.  Every other
#: library path roots color classes with the stacked array kernel
#: (``repro.graph.csr.rooted_forest_class_depths``).
ROOTED_FOREST_MODULES = (
    "repro.graph",
    "repro.graph.forests",
    "repro.core.cut",
    "repro.core.diameter_reduction",
)


def test_rooted_forest_stays_out_of_kernel_paths():
    for module in ROOTED_FOREST_MODULES:
        importlib.import_module(module)
    offenders = []
    for path in sorted((SRC_DIR / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC_DIR).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
            package = parts
        else:
            package = parts[:-1]
        module = ".".join(parts)
        if module in ROOTED_FOREST_MODULES or module.startswith("repro.verify"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        uses = any(
            name.endswith(".RootedForest")
            for name in _imported_modules(path, package)
        ) or any(
            isinstance(node, ast.Attribute) and node.attr == "RootedForest"
            for node in ast.walk(tree)
        )
        if uses:
            offenders.append(module)
    assert offenders == []
