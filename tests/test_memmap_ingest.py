"""Out-of-core CSR ingest: :meth:`CSRGraph.from_edge_iter`.

The contract under test is **byte identity**: for any edge stream, the
chunked two-pass ingest (RAM or ``np.memmap``-backed, any chunk size)
produces exactly the arrays ``from_multigraph(MultiGraph.from_edges(n,
pairs))`` would — same values, same dtypes, same half-edge order — so
every downstream kernel (peeling, orientation, decompose) is oblivious
to how the snapshot was built.  Plus the out-of-core specifics: arrays
really are memmaps under ``mmap_dir``, the edge spool is deleted after
the build, and a memmap snapshot flows through :func:`repro.decompose`
with results identical to the in-RAM path.
"""

import os
import random

import numpy as np
import pytest

import repro
from repro.errors import GraphError
from repro.graph import CSRGraph, MultiGraph

ARRAYS = (
    "vertex_ids",
    "vertex_offsets",
    "neighbor_ids",
    "edge_ids",
    "edge_u",
    "edge_v",
    "edge_id",
)


def random_pairs(seed):
    """A seeded edge stream with parallel edges and isolated vertices."""
    rng = random.Random(seed * 104_729 + 7)
    n = rng.randint(2, 60)
    pairs = []
    for _ in range(rng.randint(0, 4 * n)):
        if pairs and rng.random() < 0.2:
            pairs.append(rng.choice(pairs))  # parallel copy
        else:
            u = rng.randrange(n)
            v = rng.randrange(n)
            while v == u:
                v = rng.randrange(n)
            pairs.append((u, v))
    return n, pairs


def assert_same_snapshot(built, reference):
    """Byte identity on all seven CSR arrays, dtypes included."""
    for name in ARRAYS:
        mine = np.asarray(getattr(built, name))
        ref = np.asarray(getattr(reference, name))
        assert mine.dtype == ref.dtype, name
        assert np.array_equal(mine, ref), name
    # stream ingest always produces identity numberings
    assert built._index_of is None
    assert built._eid_pos is None


@pytest.mark.parametrize("chunk_edges", [7, 1 << 20])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_from_edge_iter_matches_from_multigraph(seed, chunk_edges):
    n, pairs = random_pairs(seed)
    reference = CSRGraph.from_multigraph(MultiGraph.from_edges(n, pairs))
    built = CSRGraph.from_edge_iter(
        iter(pairs), n=n, chunk_edges=chunk_edges
    )
    assert_same_snapshot(built, reference)


def test_from_edge_iter_accepts_array_chunks_and_infers_n():
    n, pairs = random_pairs(6)
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    # pre-chunked ndarray source, n inferred as max id + 1
    built = CSRGraph.from_edge_iter(
        [arr[: len(pairs) // 2], arr[len(pairs) // 2 :]]
    )
    inferred_n = int(arr.max()) + 1
    reference = CSRGraph.from_multigraph(
        MultiGraph.from_edges(inferred_n, pairs)
    )
    assert_same_snapshot(built, reference)


def test_from_edge_iter_empty():
    built = CSRGraph.from_edge_iter([], n=3)
    reference = CSRGraph.from_multigraph(MultiGraph.with_vertices(3))
    assert_same_snapshot(built, reference)
    assert CSRGraph.from_edge_iter([]).num_vertices == 0


@pytest.mark.parametrize("chunk_edges", [7, 1 << 20])
def test_memmap_ingest_byte_identical_to_ram(tmp_path, chunk_edges):
    n, pairs = random_pairs(8)
    mmap_dir = str(tmp_path / "csr")
    built = CSRGraph.from_edge_iter(
        iter(pairs), n=n, mmap_dir=mmap_dir, chunk_edges=chunk_edges
    )
    reference = CSRGraph.from_multigraph(MultiGraph.from_edges(n, pairs))
    assert_same_snapshot(built, reference)

    assert built.mmap_dir == mmap_dir
    for name in ARRAYS:
        array = getattr(built, name)
        assert isinstance(array, np.memmap), name
        assert os.path.exists(os.path.join(mmap_dir, f"{name}.npy")), name
    # the ingest spool is transient: deleted once the arrays are built
    assert not os.path.exists(os.path.join(mmap_dir, "edge-spool.bin"))


def test_memmap_ingest_larger_numpy_stream(tmp_path):
    rng = np.random.default_rng(1234)
    n = 2_000
    u = rng.integers(0, n, size=10_000, dtype=np.int64)
    v = rng.integers(0, n - 1, size=10_000, dtype=np.int64)
    v = np.where(v >= u, v + 1, v)  # no self-loops
    edges = np.stack((u, v), axis=1)

    def chunks():
        for lo in range(0, len(edges), 1_024):
            yield edges[lo : lo + 1_024]

    built = CSRGraph.from_edge_iter(
        chunks(), n=n, mmap_dir=str(tmp_path / "big"), chunk_edges=1_024
    )
    reference = CSRGraph.from_edge_iter(
        [edges], n=n
    )
    assert_same_snapshot(built, reference)


def test_from_edge_iter_error_paths(tmp_path):
    with pytest.raises(GraphError, match="self-loop"):
        CSRGraph.from_edge_iter([(0, 1), (2, 2)])
    with pytest.raises(GraphError, match="nonnegative"):
        CSRGraph.from_edge_iter([(0, -1)])
    with pytest.raises(GraphError, match="out of range"):
        CSRGraph.from_edge_iter([(0, 5)], n=3)
    with pytest.raises(GraphError, match=r"shape \(k, 2\)"):
        CSRGraph.from_edge_iter([np.zeros((3, 3), dtype=np.int64)])
    # error paths must not leave a stale spool behind future ingests
    with pytest.raises(GraphError, match="out of range"):
        CSRGraph.from_edge_iter(
            [(0, 5)], n=3, mmap_dir=str(tmp_path / "err")
        )


def test_snap_file_streams_into_snapshot(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text(
        "# Nodes: 5 Edges: 4\n"
        "0 1\n"
        "2\t0\t7.5\n"  # SNAP rows may carry a weight column
        "\n"
        "3 4\n"
        "1 3\n"
    )
    built = CSRGraph.from_edge_iter(str(path))
    reference = CSRGraph.from_multigraph(
        MultiGraph.from_edges(5, [(0, 1), (2, 0), (3, 4), (1, 3)])
    )
    assert_same_snapshot(built, reference)


def test_decompose_on_memmap_snapshot_matches_ram_path(tmp_path):
    # orientation is the 10^7-edge headline path (array-backed result,
    # no per-edge palette dicts), so it is what out-of-core snapshots
    # must flow through
    n, pairs = random_pairs(11)
    snapshot = CSRGraph.from_edge_iter(
        iter(pairs), n=n, mmap_dir=str(tmp_path / "csr")
    )
    graph = MultiGraph.from_edges(n, pairs)
    config = repro.DecompositionConfig(
        backend="csr",
        seed=5,
        # the out-of-core recipe: the h-partition peel with a pinned
        # pseudoarboricity never needs the exact path-reversal loop
        # (per-edge Python lists) and runs entirely on CSR arrays
        options={"method": "hpartition", "pseudoarboricity": 6},
    )
    from_mmap = repro.decompose(
        snapshot, task="orientation", config=config
    )
    from_ram = repro.decompose(graph, task="orientation", config=config)
    from_ram.validate()  # the dict-backed twin vouches for both
    assert from_mmap.bound == from_ram.bound
    assert from_mmap.orientation == from_ram.orientation
