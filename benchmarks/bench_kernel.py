"""Flat-array kernel vs. dict-backed reference on the decomposition hot paths.

The dict side is the test suite's reference package
(``tests/reference/``): the dict-adjacency implementations the kernel
was ported from, which the library itself no longer contains.

One section per substrate milestone:

* ``bench_kernel`` — the PR-1 peeling paths: ``h_partition`` (threshold
  peeling) and ``degeneracy_ordering`` (delete-min peeling).
* ``bench_traversal`` — the PR-2 traversal/network-decomposition paths:
  ``power_graph`` (the former bottleneck), multi-source
  ``bfs_distances``, ``connected_components``, the ball-carving
  ``network_decomposition`` consuming the power graph, and the MPX
  ``partial_network_decomposition`` sweep.
* ``bench_session`` — the unified-API ``Session``: the graph-prep phase
  (CSR snapshot + exact arboricity + pseudoarboricity) a *second*
  decomposition task pays on the same session, vs. what a fresh run
  pays.  Asserts the session's reason to exist (>= 1.5x faster warm
  prep at n >= 2000; in practice the warm path is pure cache hits).
* ``bench_shard`` — the csr peel's frontier work-list vs. a
  bench-local copy of the full-scan peel it replaced, at n >= 50k.
  Asserts >= 1.5x on the wave-cascade workloads (many peel waves — the
  full scan's worst case, where it rescans all n vertices per wave)
  and verifies identical classes everywhere; wave-poor workloads are
  reported unasserted (~1x there by design).  The two peels are timed
  in alternation, so a load burst slows both sides alike.
* ``bench_parallel_bfs`` — ``bfs_distance_array`` (scatter-mask dedup
  on dense waves) vs. a bench-local copy of the sort-dedup BFS it
  replaced, at n >= 50k.  Asserts >= 1.5x on the dense-frontier
  workloads (multi-seed reachability, per-color-class sub-CSR scans:
  O(n + h) scatter vs. O(h log h) sort per wave) with distances
  asserted identical; sparse-frontier BFS is reported unasserted.
* ``bench_passes`` — the csr ``depth_cut`` (every color class rooted
  in one stacked ``rooted_forest_class_depths`` call) vs. a bench-local
  copy of the per-class sweep it replaced (``rooted_forest_arrays``
  per class of 64+ edges, ``RootedForest`` below that).  Asserts
  >= 1.3x at n >= 50k with kept/deleted/deletion_tail asserted
  identical; smaller rows are reported unasserted.
* ``bench_witness`` — the witness k-orientation
  (:func:`~repro.nashwilliams.pseudoarboricity.orientation_exists`,
  routed on the snapshot's edge arrays) vs. the reference Dinic on the
  dict-keyed network it replaced, on forest unions at n = 3000 and
  30000, at ``t = ⌈1.5α⌉`` (the greedy first phase routes every edge)
  and at ``k = α*`` (Dinic's later phases run).  The kernel is timed
  on fresh copies, so its time includes the snapshot build.  Witnesses
  are asserted identical; asserts >= 5x at ``t`` and >= 2x at ``α*``.

* ``bench_ooc`` — the out-of-core leg: a 10^7-edge graph streamed
  through ``CSRGraph.from_edge_iter(mmap_dir=...)`` into
  ``decompose()`` in a fresh subprocess, asserting peak RSS stays
  within ~2x the snapshot's on-disk footprint.

All sections check output equality where applicable, assert their
speedup floors (skipped when ``BENCH_SNAPSHOT=1`` — shared CI runners
time too noisily to gate on), and archive machine-readable
``BENCH_*.json`` next to the text tables (schema: benchmarks/README.md).

Run directly:  PYTHONPATH=src python benchmarks/bench_kernel.py
Snapshot mode: BENCH_SNAPSHOT=1 PYTHONPATH=src python benchmarks/bench_kernel.py
"""

import math
import os
import random
import sys
import time

from repro.core import DecompositionConfig, Session, depth_cut
from repro.decomposition.degeneracy import degeneracy_ordering
from repro.decomposition.hpartition import h_partition
from repro.decomposition.network_decomposition import (
    network_decomposition,
    partial_network_decomposition,
)
from repro.graph import MultiGraph
from repro.graph.csr import CSRGraph, snapshot_of
from repro.graph.generators import (
    erdos_renyi,
    grid_graph,
    preferential_attachment,
    union_of_random_forests,
)
from repro.graph.traversal import (
    bfs_distances,
    connected_components,
    power_graph,
)
from repro.nashwilliams.pseudoarboricity import (
    exact_pseudoarboricity,
    orientation_exists,
)

from harness import SNAPSHOT_MODE, emit, emit_json, format_table

# The dict-adjacency reference implementations live with the tests.
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests")
)
from reference import network_decomposition as ref_nd  # noqa: E402
from reference import peel as ref_peel  # noqa: E402
from reference import traversal as ref_traversal  # noqa: E402
from reference.flow import orientation_exists as ref_orientation_exists  # noqa: E402

REPEATS = 5
TRAVERSAL_REPEATS = 3
SPEEDUP_FLOOR = 2.0

WORKLOADS = [
    ("forests n=500 a=4", False, lambda: union_of_random_forests(500, 4, seed=11)),
    ("forests n=2000 a=4", True, lambda: union_of_random_forests(2000, 4, seed=12)),
    ("forests n=8000 a=6", True, lambda: union_of_random_forests(8000, 6, seed=13)),
    ("er n=4000 p=.002", True, lambda: erdos_renyi(4000, 0.002, seed=14)),
    ("pref n=3000 d=5", True, lambda: preferential_attachment(3000, 5, seed=15)),
]

# Traversal workloads sit at the n >= 2000 scale the kernel targets;
# the power radius keeps the dict reference finishable while still
# producing the dense ``G^r`` the network decomposition consumes.
TRAVERSAL_WORKLOADS = [
    ("er n=2000 p=.003 r=3", True, 3, lambda: erdos_renyi(2000, 0.003, seed=21)),
    ("forests n=2000 a=4 r=2", True, 2, lambda: union_of_random_forests(2000, 4, seed=22)),
    ("pref n=2500 d=4 r=2", True, 2, lambda: preferential_attachment(2500, 4, seed=23)),
]


def _best(func, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return min(times)


def _best_interleaved(first, second, repeats):
    """Best-of-``repeats`` times of two callables run in alternation
    (the order flips every round), so a load burst on a shared machine
    slows both sides instead of one."""
    funcs = (first, second)
    best = [math.inf, math.inf]
    for round_index in range(repeats):
        for side in (0, 1) if round_index % 2 == 0 else (1, 0):
            start = time.perf_counter()
            funcs[side]()
            best[side] = min(best[side], time.perf_counter() - start)
    return best[0], best[1]


def run_kernel_comparison():
    rows = []
    json_rows = []
    asserted = []
    for name, assertable, make in WORKLOADS:
        graph = make()
        d, _ = degeneracy_ordering(graph)
        threshold = max(1, d)

        partition_dict = ref_peel.h_partition(graph, threshold)
        partition_csr = h_partition(graph, threshold)
        assert partition_csr.classes == partition_dict.classes
        order_dict = ref_peel.degeneracy_ordering(graph)
        order_csr = degeneracy_ordering(graph)
        assert order_csr == order_dict

        hp_dict = _best(lambda: ref_peel.h_partition(graph, threshold))
        hp_csr = _best(lambda: h_partition(graph, threshold))
        dg_dict = _best(lambda: ref_peel.degeneracy_ordering(graph))
        dg_csr = _best(lambda: degeneracy_ordering(graph))
        combined = (hp_dict + dg_dict) / (hp_csr + dg_csr)
        rows.append(
            (
                name,
                graph.n,
                graph.m,
                f"{hp_dict * 1e3:.1f}",
                f"{hp_csr * 1e3:.1f}",
                f"{hp_dict / hp_csr:.1f}x",
                f"{dg_dict * 1e3:.1f}",
                f"{dg_csr * 1e3:.1f}",
                f"{dg_dict / dg_csr:.1f}x",
                f"{combined:.2f}x",
            )
        )
        for op, t_dict, t_csr in (
            ("h_partition", hp_dict, hp_csr),
            ("degeneracy_ordering", dg_dict, dg_csr),
        ):
            json_rows.append(
                {
                    "workload": name,
                    "n": graph.n,
                    "m": graph.m,
                    "op": op,
                    "dict_ms": round(t_dict * 1e3, 3),
                    "csr_ms": round(t_csr * 1e3, 3),
                    "speedup": round(t_dict / t_csr, 3),
                }
            )
        if assertable:
            asserted.append((name, combined))

    emit(
        "kernel",
        format_table(
            "Flat-array kernel vs dict reference (hot-path peeling)",
            [
                "workload",
                "n",
                "m",
                "hpart dict ms",
                "hpart csr ms",
                "speedup",
                "degen dict ms",
                "degen csr ms",
                "speedup",
                "combined",
            ],
            rows,
        ),
    )
    emit_json(
        "BENCH_kernel",
        {
            "bench": "kernel",
            "schema_version": 1,
            "mode": "snapshot" if SNAPSHOT_MODE else "assert",
            "threshold": SPEEDUP_FLOOR,
            "rows": json_rows,
            "asserted": [
                {"workload": name, "combined_speedup": round(value, 3)}
                for name, value in asserted
            ],
        },
    )

    if not SNAPSHOT_MODE:
        for name, combined in asserted:
            assert combined >= SPEEDUP_FLOOR, (
                f"{name}: combined hot-path speedup {combined:.2f}x < "
                f"{SPEEDUP_FLOOR}x — the kernel's reason to exist"
            )
    return rows


def _check_traversal_equivalence(graph, sources):
    """Reference/kernel output equality for one workload (cheap ops
    only; the exhaustive sweep lives in tests/test_kernel_equivalence.py)."""
    assert bfs_distances(graph, sources) == ref_traversal.bfs_distances(
        graph, sources
    )
    assert connected_components(graph) == ref_traversal.connected_components(
        graph
    )
    heads_dict = ref_nd.partial_network_decomposition(graph, 0.3, seed=7)
    heads_csr = partial_network_decomposition(graph, 0.3, seed=7)
    assert heads_dict == heads_csr


def run_traversal_comparison():
    rows = []
    json_rows = []
    asserted = []
    for name, assertable, radius, make in TRAVERSAL_WORKLOADS:
        graph = make()
        snapshot = snapshot_of(graph)
        sources = graph.vertices()[:4]
        _check_traversal_equivalence(graph, sources)

        power_dict = _best(
            lambda: ref_traversal.power_graph(graph, radius), TRAVERSAL_REPEATS
        )
        power_csr = _best(
            lambda: snapshot.power_csr(radius), TRAVERSAL_REPEATS
        )
        bfs_dict = _best(
            lambda: ref_traversal.bfs_distances(graph, sources),
            TRAVERSAL_REPEATS,
        )
        bfs_csr = _best(
            lambda: bfs_distances(snapshot, sources),
            TRAVERSAL_REPEATS,
        )
        cc_dict = _best(
            lambda: ref_traversal.connected_components(graph),
            TRAVERSAL_REPEATS,
        )
        cc_csr = _best(
            lambda: connected_components(snapshot),
            TRAVERSAL_REPEATS,
        )
        # Ball carving consumes the power graph, each on its substrate.
        power_ref = ref_traversal.power_graph(graph, radius)
        power_snap = power_graph(snapshot, radius)
        assert (
            ref_nd.network_decomposition(power_ref).classes
            == network_decomposition(power_snap).classes
        )
        nd_dict = _best(
            lambda: ref_nd.network_decomposition(power_ref),
            TRAVERSAL_REPEATS,
        )
        nd_csr = _best(
            lambda: network_decomposition(power_snap),
            TRAVERSAL_REPEATS,
        )
        mpx_dict = _best(
            lambda: ref_nd.partial_network_decomposition(graph, 0.3, seed=7),
            TRAVERSAL_REPEATS,
        )
        mpx_csr = _best(
            lambda: partial_network_decomposition(snapshot, 0.3, seed=7),
            TRAVERSAL_REPEATS,
        )

        ops = [
            (f"power_graph[r={radius}]", power_dict, power_csr),
            ("bfs_distances", bfs_dict, bfs_csr),
            ("connected_components", cc_dict, cc_csr),
            ("network_decomposition[power]", nd_dict, nd_csr),
            ("partial_network_decomposition", mpx_dict, mpx_csr),
        ]
        total_dict = sum(t for _op, t, _c in ops)
        total_csr = sum(c for _op, _t, c in ops)
        combined = total_dict / total_csr
        for op, t_dict, t_csr in ops:
            rows.append(
                (
                    name,
                    graph.n,
                    graph.m,
                    op,
                    f"{t_dict * 1e3:.1f}",
                    f"{t_csr * 1e3:.1f}",
                    f"{t_dict / t_csr:.1f}x",
                )
            )
            json_rows.append(
                {
                    "workload": name,
                    "n": graph.n,
                    "m": graph.m,
                    "op": op,
                    "dict_ms": round(t_dict * 1e3, 3),
                    "csr_ms": round(t_csr * 1e3, 3),
                    "speedup": round(t_dict / t_csr, 3),
                }
            )
        rows.append((name, graph.n, graph.m, "COMBINED", "", "", f"{combined:.2f}x"))
        if assertable:
            asserted.append((name, combined))

    emit(
        "traversal",
        format_table(
            "CSR traversal + network decomposition vs dict reference",
            ["workload", "n", "m", "op", "dict ms", "csr ms", "speedup"],
            rows,
        ),
    )
    emit_json(
        "BENCH_traversal",
        {
            "bench": "traversal",
            "schema_version": 1,
            "mode": "snapshot" if SNAPSHOT_MODE else "assert",
            "threshold": SPEEDUP_FLOOR,
            "rows": json_rows,
            "asserted": [
                {"workload": name, "combined_speedup": round(value, 3)}
                for name, value in asserted
            ],
        },
    )

    if not SNAPSHOT_MODE:
        for name, combined in asserted:
            assert combined >= SPEEDUP_FLOOR, (
                f"{name}: combined traversal speedup {combined:.2f}x < "
                f"{SPEEDUP_FLOOR}x at n >= 2000 — the port's reason to exist"
            )
    return rows


# ----------------------------------------------------------------------
# Session reuse: graph-prep phase, first vs. subsequent task
# ----------------------------------------------------------------------

SESSION_SPEEDUP_FLOOR = 1.5
SESSION_REPEATS = 3

SESSION_WORKLOADS = [
    ("forests n=2500 a=4", True, lambda: union_of_random_forests(2500, 4, seed=31)),
    ("er n=2000 p=.002", True, lambda: erdos_renyi(2000, 0.002, seed=32)),
]


def run_session_comparison():
    """Cold vs. warm graph prep on one Session.

    ``Session.prepare()`` is exactly the graph-prep phase every task
    runs implicitly: CSR snapshot + memoized exact arboricity +
    pseudoarboricity.  Cold = a fresh graph and session (what the first
    task pays); warm = ``prepare()`` again on the same session (what
    every subsequent task pays — fingerprint-keyed cache hits).  Fresh
    graphs are regenerated per repeat so no instance-level snapshot
    cache leaks into the cold timings.
    """
    rows = []
    json_rows = []
    asserted = []
    for name, assertable, make in SESSION_WORKLOADS:
        # One cold measurement: the exact-arboricity ground truth takes
        # seconds at this scale, and the asserted floor (1.5x) sits
        # orders of magnitude below the observed ratio, so min-of-N
        # would only slow the bench down.
        graph = make()
        session = Session(graph)
        start = time.perf_counter()
        session.prepare()  # the first task's prep
        cold = time.perf_counter() - start
        warm = _best(lambda: session.prepare(), SESSION_REPEATS)
        speedup = cold / max(warm, 1e-9)

        # End-to-end demonstration: the same cheap query twice on one
        # session — the second run's prep is all cache hits (the
        # compute itself is identical, so the delta *is* the prep).
        config = DecompositionConfig(epsilon=0.5, seed=41)
        fresh_graph = make()
        fresh_session = Session(fresh_graph)
        start = time.perf_counter()
        first = fresh_session.decompose(
            "orientation", config, method="hpartition"
        )
        task1 = time.perf_counter() - start
        start = time.perf_counter()
        second = fresh_session.decompose(
            "orientation", config, method="hpartition"
        )
        task2 = time.perf_counter() - start
        assert first.coloring == second.coloring  # reuse changes nothing

        rows.append(
            (
                name,
                graph.n,
                graph.m,
                f"{cold * 1e3:.1f}",
                f"{warm * 1e3:.3f}",
                f"{speedup:.0f}x",
                f"{task1 * 1e3:.1f}",
                f"{task2 * 1e3:.1f}",
            )
        )
        json_rows.append(
            {
                "workload": name,
                "n": graph.n,
                "m": graph.m,
                "cold_prep_ms": round(cold * 1e3, 3),
                "warm_prep_ms": round(warm * 1e3, 5),
                "prep_speedup": round(speedup, 3),
                "first_task_ms": round(task1 * 1e3, 3),
                "second_task_ms": round(task2 * 1e3, 3),
            }
        )
        if assertable:
            asserted.append((name, speedup))

    emit(
        "session",
        format_table(
            "Session reuse: graph-prep phase, first vs. subsequent task",
            [
                "workload",
                "n",
                "m",
                "cold prep ms",
                "warm prep ms",
                "speedup",
                "task1 ms",
                "task2 ms",
            ],
            rows,
        ),
    )
    emit_json(
        "BENCH_session",
        {
            "bench": "session",
            "schema_version": 1,
            "mode": "snapshot" if SNAPSHOT_MODE else "assert",
            "threshold": SESSION_SPEEDUP_FLOOR,
            "rows": json_rows,
            "asserted": [
                {"workload": name, "prep_speedup": round(value, 3)}
                for name, value in asserted
            ],
        },
    )

    if not SNAPSHOT_MODE:
        for name, speedup in asserted:
            assert speedup >= SESSION_SPEEDUP_FLOOR, (
                f"{name}: warm graph-prep only {speedup:.2f}x faster < "
                f"{SESSION_SPEEDUP_FLOOR}x — Session caching is broken"
            )
    return rows


# ----------------------------------------------------------------------
# Peel work-list vs. the full-scan peel
# ----------------------------------------------------------------------

SHARD_SPEEDUP_FLOOR = 1.5
SHARD_REPEATS = 5

# (name, asserted, threshold, factory).  The asserted workloads are
# wave cascades: peeling proceeds frontier by frontier (hundreds of
# waves), so a full-scan peel pays an O(n) scan per wave while the csr
# peel's work-list hands each wave its exact removal set.  The
# unasserted ones are wave-poor (a handful of waves) — there both do
# the same bulk work and the work-list is honestly ~1x; they are
# reported so the trade-off stays visible in the artifacts.
SHARD_WORKLOADS = [
    ("grid 320x320 cascade t=2", True, 2,
     lambda: grid_graph(320, 320)),
    ("grid 400x400 cascade t=2", True, 2,
     lambda: grid_graph(400, 400)),
    ("pref n=120k d=4 t=4", False, 4,
     lambda: preferential_attachment(120000, 4, seed=51)),
    ("forests n=60k a=5 t=12", False, 12,
     lambda: union_of_random_forests(60000, 5, seed=52)),
]


def full_scan_h_partition(snapshot, threshold):
    """The csr peel as it was before the work-list: every wave scans
    all n vertices for ``alive & (remaining <= threshold)``.  Returns
    classes keyed by vertex id, like ``h_partition(...).classes``."""
    import numpy as np

    from repro.graph.csr import _concat_ranges

    n = snapshot.num_vertices
    offsets = snapshot.vertex_offsets
    alive = np.ones(n, dtype=bool)
    remaining = snapshot.degrees().astype(np.int64, copy=True)
    vertex_ids = snapshot.vertex_ids.tolist()
    classes = {}
    wave = 0
    while alive.any():
        wave += 1
        removed = np.flatnonzero(alive & (remaining <= threshold))
        assert removed.size, "threshold too small"
        alive[removed] = False
        half = _concat_ranges(offsets[removed], offsets[removed + 1])
        neighbors = snapshot.neighbor_ids[half]
        neighbors = neighbors[alive[neighbors]]
        if neighbors.size * 4 >= n:
            remaining -= np.bincount(neighbors, minlength=n)
        elif neighbors.size:
            touched, counts = np.unique(neighbors, return_counts=True)
            remaining[touched] -= counts
        for index in removed.tolist():
            classes[vertex_ids[index]] = wave
    return classes


def run_shard_comparison():
    rows = []
    json_rows = []
    asserted = []
    for name, assertable, threshold, make in SHARD_WORKLOADS:
        graph = make()
        snapshot = snapshot_of(graph)
        reference = h_partition(graph, threshold, snapshot=snapshot)
        assert full_scan_h_partition(snapshot, threshold) == reference.classes
        full_ms, csr_ms = _best_interleaved(
            lambda: full_scan_h_partition(snapshot, threshold),
            lambda: h_partition(graph, threshold, snapshot=snapshot),
            SHARD_REPEATS,
        )
        speedup = full_ms / csr_ms
        rows.append(
            (
                name,
                graph.n,
                graph.m,
                reference.num_classes,
                f"{full_ms * 1e3:.1f}",
                f"{csr_ms * 1e3:.1f}",
                f"{speedup:.2f}x",
            )
        )
        json_rows.append(
            {
                "workload": name,
                "n": graph.n,
                "m": graph.m,
                "op": "h_partition",
                "waves": reference.num_classes,
                "full_scan_ms": round(full_ms * 1e3, 3),
                "csr_ms": round(csr_ms * 1e3, 3),
                "speedup": round(speedup, 3),
            }
        )
        if assertable:
            asserted.append((name, speedup))

    emit(
        "shard",
        format_table(
            "csr peel work-list vs full-scan peel (n >= 50k)",
            [
                "workload",
                "n",
                "m",
                "waves",
                "full-scan ms",
                "csr ms",
                "speedup",
            ],
            rows,
        ),
    )
    emit_json(
        "BENCH_shard",
        {
            "bench": "shard",
            "schema_version": 2,
            "mode": "snapshot" if SNAPSHOT_MODE else "assert",
            "threshold": SHARD_SPEEDUP_FLOOR,
            "rows": json_rows,
            "asserted": [
                {"workload": name, "speedup": round(value, 3)}
                for name, value in asserted
            ],
        },
    )

    if not SNAPSHOT_MODE:
        for name, speedup in asserted:
            assert speedup >= SHARD_SPEEDUP_FLOOR, (
                f"{name}: work-list speedup {speedup:.2f}x < "
                f"{SHARD_SPEEDUP_FLOOR}x at n >= 50k — the peel "
                "work-list's reason to exist"
            )
    return rows


# ----------------------------------------------------------------------
# Scatter-dedup BFS vs. the sort-dedup BFS
# ----------------------------------------------------------------------

PARALLEL_BFS_SPEEDUP_FLOOR = 1.5
PARALLEL_BFS_REPEATS = 5

# (name, asserted, kind, factory).  The asserted workloads are
# dense-frontier BFS sweeps (multi-seed reachability and per-color-
# class scans): a sort-dedup sweep dedups every wave in O(h log h),
# while bfs_distance_array scatter-dedups dense waves in O(n + h).
# Sparse-frontier BFS (grid) is reported unasserted: its waves stay
# below n / 8 half-edges, so both sweeps sort and the ratio is ~1x.
PARALLEL_BFS_WORKLOADS = [
    ("pref n=120k d=5 multi-seed bfs", True, "bfs",
     lambda: preferential_attachment(120000, 5, seed=51)),
    ("forests n=100k a=5 color-class bfs", True, "color_bfs",
     lambda: union_of_random_forests(100000, 5, seed=52)),
    ("grid 350x350 multi-seed bfs", False, "bfs",
     lambda: grid_graph(350, 350)),
]


def sort_dedup_bfs(offsets, neighbors, n, seeds):
    """The csr BFS as it was before the scatter dedup: every wave
    dedups its candidates with ``np.unique``."""
    import numpy as np

    from repro.graph.csr import _concat_ranges

    dist = np.full(n, -1, dtype=np.int64)
    frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    dist[frontier] = 0
    depth = 0
    while frontier.size:
        half = _concat_ranges(offsets[frontier], offsets[frontier + 1])
        targets = np.unique(neighbors[half])
        targets = targets[dist[targets] < 0]
        depth += 1
        dist[targets] = depth
        frontier = targets
    return dist


def _bfs_case(graph, kind):
    """``(offsets, neighbors, n, seeds)`` for one workload."""
    snap = snapshot_of(graph)
    n = snap.num_vertices
    if kind == "bfs":
        return snap.vertex_offsets, snap.neighbor_ids, n, [
            0, n // 3, (2 * n) // 3,
        ]
    # One color class of the forest union (every 5th edge position
    # approximates a per-color subset) extracted as a sub-CSR over the
    # host indices — the per-color extraction shape.
    eids = snap.edge_id.tolist()[::5]
    offsets, nbr, _eids = snap.edge_subset_csr_arrays(eids)
    return offsets, nbr, n, [0, n // 2]


def run_parallel_bfs_comparison():
    import numpy as np

    from repro.graph.csr import bfs_distance_array

    rows = []
    json_rows = []
    asserted = []
    for name, assertable, kind, make in PARALLEL_BFS_WORKLOADS:
        graph = make()
        args = _bfs_case(graph, kind)
        reference = sort_dedup_bfs(*args)
        assert np.array_equal(bfs_distance_array(*args), reference)
        sort_ms = _best(lambda: sort_dedup_bfs(*args), PARALLEL_BFS_REPEATS)
        csr_ms = _best(lambda: bfs_distance_array(*args), PARALLEL_BFS_REPEATS)
        speedup = sort_ms / csr_ms
        rows.append(
            (
                name,
                graph.n,
                graph.m,
                kind,
                f"{sort_ms * 1e3:.1f}",
                f"{csr_ms * 1e3:.1f}",
                f"{speedup:.2f}x",
            )
        )
        json_rows.append(
            {
                "workload": name,
                "n": graph.n,
                "m": graph.m,
                "op": kind,
                "sort_dedup_ms": round(sort_ms * 1e3, 3),
                "csr_ms": round(csr_ms * 1e3, 3),
                "speedup": round(speedup, 3),
            }
        )
        if assertable:
            asserted.append((name, speedup))

    emit(
        "parallel_bfs",
        format_table(
            "csr scatter-dedup BFS vs sort-dedup BFS (n >= 50k)",
            [
                "workload",
                "n",
                "m",
                "op",
                "sort-dedup ms",
                "csr ms",
                "speedup",
            ],
            rows,
        ),
    )
    emit_json(
        "BENCH_parallel_bfs",
        {
            "bench": "parallel_bfs",
            "schema_version": 2,
            "mode": "snapshot" if SNAPSHOT_MODE else "assert",
            "threshold": PARALLEL_BFS_SPEEDUP_FLOOR,
            "rows": json_rows,
            "asserted": [
                {"workload": name, "speedup": round(value, 3)}
                for name, value in asserted
            ],
        },
    )

    if not SNAPSHOT_MODE:
        for name, speedup in asserted:
            assert speedup >= PARALLEL_BFS_SPEEDUP_FLOOR, (
                f"{name}: scatter-dedup speedup {speedup:.2f}x < "
                f"{PARALLEL_BFS_SPEEDUP_FLOOR}x at n >= 50k — the "
                "scatter dedup's reason to exist"
            )
    return rows


# ----------------------------------------------------------------------
# Witness orientations: snapshot arrays vs the dict-keyed Dinic network
# ----------------------------------------------------------------------

WITNESS_REPEATS = 3
WITNESS_ALPHA = 6
# At t = ceil(1.5 alpha) the greedy first phase routes every edge; at
# k = alpha* Dinic's later phases run on the flat arc lists.
WITNESS_FLOORS = {"t": 5.0, "alpha*": 2.0}
WITNESS_WORKLOADS = [
    ("forests n=3000 a=6", 3000),
    ("forests n=30000 a=6", 30000),
]


def run_witness_comparison():
    rows = []
    json_rows = []
    asserted = []
    for name, n in WITNESS_WORKLOADS:
        graph = union_of_random_forests(n, WITNESS_ALPHA, seed=31, simple=True)
        pseudo = exact_pseudoarboricity(graph)
        bounds = (("t", math.ceil(1.5 * WITNESS_ALPHA)), ("alpha*", pseudo))
        for bound, k in bounds:
            got = orientation_exists(graph, k)
            # One timed shot of the reference: it is the slow side, so
            # repeat noise is irrelevant and repeats dominate runtime.
            start = time.perf_counter()
            want = ref_orientation_exists(graph, k)
            ref_ms = (time.perf_counter() - start) * 1e3
            assert got is not None and list(got.items()) == list(want.items())
            # Fresh copies carry no cached snapshot: the kernel's time
            # includes building the one it routes on.
            copies = iter([graph.copy() for _ in range(WITNESS_REPEATS)])
            kernel_ms = _best(
                lambda: orientation_exists(next(copies), k), WITNESS_REPEATS
            ) * 1e3
            speedup = ref_ms / kernel_ms
            rows.append(
                (
                    name,
                    graph.m,
                    f"{bound}={k}",
                    f"{ref_ms:.1f}",
                    f"{kernel_ms:.1f}",
                    f"{speedup:.1f}x",
                )
            )
            json_rows.append(
                {
                    "workload": name,
                    "n": graph.n,
                    "m": graph.m,
                    "bound": bound,
                    "k": k,
                    "reference_ms": round(ref_ms, 3),
                    "kernel_ms": round(kernel_ms, 3),
                    "speedup": round(speedup, 3),
                }
            )
            asserted.append((name, bound, speedup))

    emit(
        "witness",
        format_table(
            "Witness k-orientation: snapshot arrays vs reference Dinic",
            ["workload", "m", "k", "reference ms", "kernel ms", "speedup"],
            rows,
        ),
    )
    emit_json(
        "BENCH_witness",
        {
            "bench": "witness",
            "schema_version": 1,
            "mode": "snapshot" if SNAPSHOT_MODE else "assert",
            "threshold": min(WITNESS_FLOORS.values()),
            "rows": json_rows,
            "asserted": [
                {
                    "workload": name,
                    "bound": bound,
                    "floor": WITNESS_FLOORS[bound],
                    "speedup": round(value, 3),
                }
                for name, bound, value in asserted
            ],
        },
    )

    if not SNAPSHOT_MODE:
        for name, bound, speedup in asserted:
            floor = WITNESS_FLOORS[bound]
            assert speedup >= floor, (
                f"{name} at k = {bound}: witness speedup {speedup:.2f}x < "
                f"{floor}x over the reference Dinic network"
            )
    return rows


# ----------------------------------------------------------------------
# Stacked depth cut vs the per-class sweep
# ----------------------------------------------------------------------

PASSES_REPEATS = 3
PASSES_SPEEDUP_FLOOR = 1.3
PASSES_Z = 37
PASSES_SEED = 5


def forest_coloring_graph(n, k, seed):
    """``k`` overlaid random forests on ``n`` vertices, each a color
    class — the shape ``depth_cut`` sees from the forest pipelines."""
    rng = random.Random(seed)
    graph = MultiGraph.with_vertices(n)
    coloring = {}
    for cls in range(k):
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(1, n):
            if rng.random() < 0.9:
                parent = perm[rng.randrange(i)]
                eid = graph.add_edge(perm[i], parent)
                coloring[eid] = cls
    return graph, coloring


def per_class_depth_cut(graph, coloring, z, seed):
    """The csr ``depth_cut`` as it was before the stacked rooting:
    each class of 64+ edges is rooted on its own with
    ``rooted_forest_arrays`` (a union-find + BFS per class), smaller
    ones with ``RootedForest``.  Same residue stream, so it returns
    the same ``(kept, deleted, deletion_tail)``."""
    import numpy as np

    from repro.graph import RootedForest, rooted_forest_arrays
    from repro.graph.forests import color_classes
    from repro.rng import make_rng

    rng = make_rng(seed)
    snap = snapshot_of(graph)
    kept, deleted, deletion_tail = {}, [], {}
    for color, eids in sorted(color_classes(coloring).items()):
        if len(eids) < 64:
            forest = RootedForest(graph, eids)
            residue = rng.randrange(z)
            cut_edges = set(forest.edges_at_depth_residue(residue, z))
            for eid in eids:
                if eid in cut_edges:
                    u, v = graph.endpoints(eid)
                    deleted.append(eid)
                    deletion_tail[eid] = (
                        u if forest.depth[u] > forest.depth[v] else v
                    )
                else:
                    kept[eid] = color
            continue
        depth = rooted_forest_arrays(snap, eids).depth
        residue = rng.randrange(z)
        positions = snap.edge_positions(eids)
        du = depth[snap.edge_u[positions]]
        dv = depth[snap.edge_v[positions]]
        child_ids = np.where(
            du > dv, snap.edge_u_ids[positions], snap.edge_v_ids[positions]
        )
        is_cut = (np.maximum(du, dv) % z) == residue
        for eid, cut, child in zip(eids, is_cut.tolist(), child_ids.tolist()):
            if cut:
                deleted.append(eid)
                deletion_tail[eid] = int(child)
            else:
                kept[eid] = color
    return kept, deleted, deletion_tail


# (name, asserted, factory).  Many mid-sized classes are the per-class
# sweep's worst case: each class pays its own union-find rooting and
# BFS, while the stacked rooting handles every class in one array
# pass.  The small rows are reported unasserted.
PASSES_WORKLOADS = [
    (
        "forest-classes n=60k k=8",
        True,
        lambda: forest_coloring_graph(60_000, 8, seed=1),
    ),
    (
        "forest-classes n=50k k=12",
        True,
        lambda: forest_coloring_graph(50_000, 12, seed=2),
    ),
    (
        "forest-classes n=600 k=3",
        False,
        lambda: forest_coloring_graph(600, 3, seed=3),
    ),
    (
        "forest-classes n=3000 k=20",
        False,
        lambda: forest_coloring_graph(3_000, 20, seed=4),
    ),
]


def run_passes_comparison():
    rows = []
    json_rows = []
    asserted = []
    for name, assertable, make in PASSES_WORKLOADS:
        graph, coloring = make()

        def stacked():
            return depth_cut(graph, coloring, PASSES_Z, seed=PASSES_SEED)

        def per_class():
            return per_class_depth_cut(
                graph, coloring, PASSES_Z, PASSES_SEED
            )

        result = stacked()
        assert (
            result.kept, result.deleted, result.deletion_tail
        ) == per_class()
        per_class_ms = _best(per_class, PASSES_REPEATS) * 1e3
        stacked_ms = _best(stacked, PASSES_REPEATS) * 1e3
        speedup = per_class_ms / stacked_ms
        rows.append(
            (
                name,
                graph.n,
                graph.m,
                f"{per_class_ms:.1f}",
                f"{stacked_ms:.1f}",
                f"{speedup:.2f}x",
            )
        )
        json_rows.append(
            {
                "workload": name,
                "n": graph.n,
                "m": graph.m,
                "per_class_ms": round(per_class_ms, 3),
                "stacked_ms": round(stacked_ms, 3),
                "speedup": round(speedup, 3),
            }
        )
        if assertable:
            asserted.append((name, speedup))

    emit(
        "passes",
        format_table(
            "Stacked depth_cut vs per-class sweep (asserted at n >= 50k)",
            [
                "workload",
                "n",
                "m",
                "per-class ms",
                "stacked ms",
                "speedup",
            ],
            rows,
        ),
    )
    emit_json(
        "BENCH_passes",
        {
            "bench": "passes",
            "schema_version": 3,
            "mode": "snapshot" if SNAPSHOT_MODE else "assert",
            "threshold": PASSES_SPEEDUP_FLOOR,
            "rows": json_rows,
            "asserted": [
                {"workload": name, "speedup": round(value, 3)}
                for name, value in asserted
            ],
        },
    )

    if not SNAPSHOT_MODE:
        for name, speedup in asserted:
            assert speedup >= PASSES_SPEEDUP_FLOOR, (
                f"{name}: stacked depth-cut speedup {speedup:.2f}x < "
                f"{PASSES_SPEEDUP_FLOOR}x at n >= 50k — the stacked "
                "rooting's reason to exist"
            )
    return rows


# ----------------------------------------------------------------------
# Delta engine vs full recompute per mutation batch (PR-8)
# ----------------------------------------------------------------------

DELTA_REPEATS = 2
DELTA_SPEEDUP_FLOOR = 3.0
DELTA_BATCHES = 6
DELTA_BATCH_SIZE = 4

# A sparse forest union at n >= 50k is the delta engine's home turf:
# the H-partition wave fixed point is *locally* stable (a random edit
# dirties a handful of vertices), while a from-scratch recompute
# re-pays the full graph prep (CSR snapshot build), the whole peel,
# and the O(m) orientation dict.  (A grid is deliberately NOT used
# here: its nested-square wave gradient is globally coupled — one
# degree bump can cascade to a quarter of the graph — which is
# exactly the dirty-fraction fallback's job, covered by the corpus
# tests, not a maintenance showcase.)
DELTA_WORKLOADS = [
    (
        "forests n=60k a=4",
        True,
        lambda: union_of_random_forests(60_000, 4, seed=31),
    ),
]

DELTA_WATCH_KWARGS = {"method": "hpartition", "pseudoarboricity": 4}


def _delta_batches(graph, seed):
    """Deterministic mixed batches: local inserts + existing deletes."""
    rng = random.Random(seed)
    n = graph.n
    ids = graph.edge_ids()
    batches = []
    used = set()
    for _ in range(DELTA_BATCHES):
        inserts = []
        for _ in range(DELTA_BATCH_SIZE):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v:
                inserts.append((u, v))
        deletes = []
        while len(deletes) < DELTA_BATCH_SIZE:
            eid = ids[rng.randrange(len(ids))]
            if eid not in used:
                used.add(eid)
                deletes.append(eid)
        batches.append((inserts, deletes))
    return batches


_SNAPSHOT_ARRAYS = (
    "vertex_offsets", "neighbor_ids", "edge_ids", "edge_id", "edge_u",
    "edge_v", "edge_u_ids", "edge_v_ids", "vertex_ids",
)


def _assert_same_snapshot(patched, rebuilt):
    import numpy as np

    for name in _SNAPSHOT_ARRAYS:
        got, want = getattr(patched, name), getattr(rebuilt, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), (
            f"patched snapshot array {name} != CSRGraph.from_multigraph"
        )


def run_delta_comparison():
    rows = []
    json_rows = []
    asserted = []
    cfg = DecompositionConfig(validation="none")
    for name, assertable, make in DELTA_WORKLOADS:
        graph = make()
        batches = _delta_batches(graph, seed=31)
        session = Session(graph, cfg)
        session.watch("orientation", **DELTA_WATCH_KWARGS)

        delta_ms_total = 0.0
        full_ms_total = 0.0
        incremental = 0
        for inserts, deletes in batches:
            start = time.perf_counter()
            report = session.apply_delta(inserts, deletes)
            delta_ms = (time.perf_counter() - start) * 1e3
            delta_ms_total += delta_ms
            incremental += int(report.mode == "incremental")

            # Full-recompute baseline on the *same* mutated graph: a
            # fresh session on a copy (copy untimed) so no oracle or
            # snapshot cache leaks into the baseline.
            baseline_graph = graph.copy()
            best_full = None
            for _ in range(DELTA_REPEATS):
                fresh = Session(baseline_graph.copy(), cfg)
                start = time.perf_counter()
                result = fresh.decompose(
                    "orientation", **DELTA_WATCH_KWARGS
                )
                elapsed = (time.perf_counter() - start) * 1e3
                best_full = (
                    elapsed if best_full is None else min(best_full, elapsed)
                )
            full_ms_total += best_full
            # bit-identity of the maintained result, every batch
            assert session.current("orientation").coloring == result.coloring
            # ... and of the spliced snapshot against a full rebuild
            _assert_same_snapshot(
                snapshot_of(graph), CSRGraph.from_multigraph(baseline_graph)
            )

        per_batch_delta = delta_ms_total / len(batches)
        per_batch_full = full_ms_total / len(batches)
        speedup = per_batch_full / per_batch_delta
        rows.append(
            (
                name,
                graph.n,
                graph.m,
                f"{incremental}/{len(batches)}",
                f"{per_batch_full:.1f}",
                f"{per_batch_delta:.1f}",
                f"{speedup:.2f}x",
            )
        )
        json_rows.append(
            {
                "workload": name,
                "n": graph.n,
                "m": graph.m,
                "batches": len(batches),
                "batch_size": DELTA_BATCH_SIZE,
                "incremental_batches": incremental,
                "full_ms": round(per_batch_full, 3),
                "delta_ms": round(per_batch_delta, 3),
                "speedup": round(speedup, 3),
            }
        )
        if assertable:
            asserted.append((name, speedup))

    emit(
        "delta",
        format_table(
            "Delta engine vs full recompute per mutation batch (n >= 50k)",
            [
                "workload",
                "n",
                "m",
                "incremental",
                "full ms",
                "delta ms",
                "speedup",
            ],
            rows,
        ),
    )
    emit_json(
        "BENCH_delta",
        {
            "bench": "delta",
            "schema_version": 1,
            "mode": "snapshot" if SNAPSHOT_MODE else "assert",
            "threshold": DELTA_SPEEDUP_FLOOR,
            "rows": json_rows,
            "asserted": [
                {"workload": name, "speedup": round(value, 3)}
                for name, value in asserted
            ],
        },
    )

    if not SNAPSHOT_MODE:
        for name, speedup in asserted:
            assert speedup >= DELTA_SPEEDUP_FLOOR, (
                f"{name}: delta-engine speedup {speedup:.2f}x < "
                f"{DELTA_SPEEDUP_FLOOR}x vs full recompute at n >= 50k — "
                "the delta engine's reason to exist"
            )
    return rows


# ----------------------------------------------------------------------
# Out-of-core ingest
# ----------------------------------------------------------------------

#: out-of-core leg: edge count of the streamed graph (override to
#: shrink locally; the acceptance scale is 10^7).
OOC_EDGES = int(os.environ.get("REPRO_BENCH_OOC_EDGES", str(10_000_000)))
#: peak-RSS budget for the snapshot itself, as a multiple of its
#: on-disk footprint.
OOC_RSS_DISK_RATIO = 2.0
#: RSS allowance for the bare interpreter + numpy + result arrays on
#: top of the on-disk-footprint budget.
OOC_RSS_BASE_BYTES = 256 * 1024 * 1024

# The out-of-core measurement runs in a fresh subprocess so its
# ru_maxrss is the leg's own peak, not whatever earlier sections of
# this bench happened to allocate.
_OOC_CHILD = r"""
import json, os, sys, tempfile, time
import numpy as np
import repro
from repro.graph.csr import CSRGraph

def peak_rss_bytes():
    # NOT ru_maxrss: getrusage's high-water mark survives fork+exec on
    # Linux, so a child spawned from a large bench parent would report
    # the parent's peak.  VmHWM is reset with the fresh mm at exec.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return 0

m, n = int(sys.argv[1]), int(sys.argv[2])
rng = np.random.default_rng(97)

def chunks():
    left = m
    while left:
        k = min(1 << 20, left)
        u = rng.integers(0, n, size=k, dtype=np.int64)
        v = rng.integers(0, n - 1, size=k, dtype=np.int64)
        v = np.where(v >= u, v + 1, v)  # no self-loops
        yield np.stack((u, v), axis=1)
        left -= k

with tempfile.TemporaryDirectory() as root:
    mmap_dir = os.path.join(root, "csr")
    t0 = time.perf_counter()
    snap = CSRGraph.from_edge_iter(chunks(), n=n, mmap_dir=mmap_dir)
    ingest_s = time.perf_counter() - t0
    disk = sum(
        os.path.getsize(os.path.join(mmap_dir, f))
        for f in os.listdir(mmap_dir)
    )
    # the out-of-core recipe: h-partition orientation with a pinned
    # pseudoarboricity (no exact pseudoarboricity pass, no per-edge
    # Python state)
    config = repro.DecompositionConfig(
        options={"method": "hpartition", "pseudoarboricity": 24},
    )
    t0 = time.perf_counter()
    result = repro.decompose(snap, task="orientation", config=config)
    decompose_s = time.perf_counter() - t0
    payload = {
        "n": n,
        "m": m,
        "bound": int(result.bound),
        "oriented_edges": len(result.coloring),
        "ingest_s": round(ingest_s, 3),
        "decompose_s": round(decompose_s, 3),
        "disk_bytes": int(disk),
        "peak_rss_bytes": peak_rss_bytes(),
    }
print(json.dumps(payload))
"""


def _run_ooc_leg():
    import json
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-c", _OOC_CHILD, str(OOC_EDGES), str(OOC_EDGES // 10)],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout)


def run_ooc_comparison():
    ooc = _run_ooc_leg()
    rows = [
        (
            f"er m={ooc['m']}",
            ooc["n"],
            ooc["m"],
            f"{ooc['ingest_s']:.1f}",
            f"{ooc['decompose_s']:.1f}",
            f"{ooc['peak_rss_bytes'] / 2**20:.0f}",
            f"{ooc['disk_bytes'] / 2**20:.0f}",
        )
    ]
    emit(
        "ooc",
        format_table(
            "Out-of-core: streamed memmap ingest + decompose",
            [
                "workload",
                "n",
                "m",
                "ingest s",
                "decompose s",
                "rss MB",
                "disk MB",
            ],
            rows,
        ),
    )
    emit_json(
        "BENCH_ooc",
        {
            "bench": "ooc",
            "schema_version": 1,
            "mode": "snapshot" if SNAPSHOT_MODE else "assert",
            "threshold": OOC_RSS_DISK_RATIO,
            "out_of_core": ooc,
        },
    )

    if not SNAPSHOT_MODE:
        # The decomposition's working set stays within ~2x the
        # snapshot's on-disk footprint (plus a fixed interpreter/numpy
        # allowance) — the backing arrays are paged, not resident.
        budget = OOC_RSS_DISK_RATIO * ooc["disk_bytes"] + OOC_RSS_BASE_BYTES
        assert ooc["peak_rss_bytes"] <= budget, (
            f"out-of-core peak RSS {ooc['peak_rss_bytes'] / 2**20:.0f}MB "
            f"exceeds budget {budget / 2**20:.0f}MB "
            f"(disk {ooc['disk_bytes'] / 2**20:.0f}MB)"
        )
    return rows


def bench_kernel(benchmark=None):
    if benchmark is None:
        run_kernel_comparison()
    else:
        from harness import once

        once(benchmark, run_kernel_comparison)


def bench_traversal(benchmark=None):
    if benchmark is None:
        run_traversal_comparison()
    else:
        from harness import once

        once(benchmark, run_traversal_comparison)


def bench_session(benchmark=None):
    if benchmark is None:
        run_session_comparison()
    else:
        from harness import once

        once(benchmark, run_session_comparison)


def bench_shard(benchmark=None):
    if benchmark is None:
        run_shard_comparison()
    else:
        from harness import once

        once(benchmark, run_shard_comparison)


def bench_parallel_bfs(benchmark=None):
    if benchmark is None:
        run_parallel_bfs_comparison()
    else:
        from harness import once

        once(benchmark, run_parallel_bfs_comparison)


def bench_witness(benchmark=None):
    if benchmark is None:
        run_witness_comparison()
    else:
        from harness import once

        once(benchmark, run_witness_comparison)


def bench_passes(benchmark=None):
    if benchmark is None:
        run_passes_comparison()
    else:
        from harness import once

        once(benchmark, run_passes_comparison)


def bench_delta(benchmark=None):
    if benchmark is None:
        run_delta_comparison()
    else:
        from harness import once

        once(benchmark, run_delta_comparison)


def bench_ooc(benchmark=None):
    if benchmark is None:
        run_ooc_comparison()
    else:
        from harness import once

        once(benchmark, run_ooc_comparison)


if __name__ == "__main__":
    bench_kernel()
    bench_traversal()
    bench_session()
    bench_shard()
    bench_parallel_bfs()
    bench_witness()
    bench_passes()
    bench_delta()
    bench_ooc()
