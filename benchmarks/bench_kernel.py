"""Flat-array kernel vs. dict-backed graph on the decomposition hot paths.

Seven sections, one per substrate milestone:

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
* ``bench_shard`` — the sharded multi-worker peeling backend vs. the
  serial csr kernel at n >= 50k, workers in {1, 2, 4}.  Asserts
  >= 1.5x on the wave-cascade workloads (many peel waves — the serial
  path's worst case, where it rescans all n vertices per wave) and
  verifies bit-identical classes everywhere; wave-poor workloads are
  reported unasserted (sharding is deliberately ~1x there).
* ``bench_parallel_bfs`` — the PR-5 engine-backed BFS paths vs. the
  serial csr sweeps at n >= 50k, workers in {1, 2, 4}.  Asserts
  >= 1.5x on the dense-frontier workloads (multi-seed reachability,
  per-color-class sub-CSR scans: the engine reconcile scatter-dedups
  each wave in O(n + h) where the serial sweep sorts in
  O(h log h)) with outputs asserted bit-identical for every worker
  count; sparse-frontier BFS and the sequential ball carving are
  reported unasserted (~1x single-core by design, thread fan-out adds
  on multi-core).
* ``bench_passes`` — the pass scheduler's concurrent color-class
  batching (``schedule="concurrent"``) vs. the serial per-class sweep
  on ``depth_cut`` at n >= 50k, workers in {1, 2, 4}.  The serial
  schedule roots each color forest with its own union-find + BFS; the
  concurrent schedule stacks every array-eligible class into one
  ``rooted_forest_class_depths`` call (single-CPU win: the speedup is
  algorithmic batching, not thread fan-out).  Asserts best-over-workers
  >= 1.3x with kept/deleted/deletion_tail asserted bit-identical to
  the serial reference for every worker count — the pipeline
  determinism contract.
* ``bench_carve`` — the simultaneous carve rule
  (``carve_rule="simultaneous"``) vs. the doubling rule's sequential
  ball-at-a-time carve at n >= 50k.  The doubling rule grows one ball
  per BFS level per *cluster* (the very sequential path the section
  above leaves unasserted); the simultaneous rule grows every live
  ball one level per wave, so a class finishes in O(log n) array-wide
  waves.  Asserts best-over-workers >= 1.5x vs. the doubling csr
  carve (in practice the win is algorithmic and large), with classes
  asserted bit-identical across serial and every worker count.

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

import os
import random
import time

from repro.core import DecompositionConfig, Session, depth_cut
from repro.decomposition.degeneracy import degeneracy_ordering
from repro.decomposition.hpartition import h_partition
from repro.decomposition.network_decomposition import (
    network_decomposition,
    partial_network_decomposition,
)
from repro.graph import MultiGraph
from repro.graph.csr import snapshot_of
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

from harness import SNAPSHOT_MODE, emit, emit_json, format_table

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

# Traversal workloads sit at the n >= 2000 scale the tentpole targets;
# the power radius keeps the dict reference path finishable while still
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


def run_kernel_comparison():
    rows = []
    json_rows = []
    asserted = []
    for name, assertable, make in WORKLOADS:
        graph = make()
        d, _ = degeneracy_ordering(graph)
        threshold = max(1, d)

        partition_dict = h_partition(graph, threshold, backend="dict")
        partition_csr = h_partition(graph, threshold, backend="csr")
        assert partition_csr.classes == partition_dict.classes
        order_dict = degeneracy_ordering(graph, backend="dict")
        order_csr = degeneracy_ordering(graph, backend="csr")
        assert order_csr == order_dict

        hp_dict = _best(lambda: h_partition(graph, threshold, backend="dict"))
        hp_csr = _best(lambda: h_partition(graph, threshold, backend="csr"))
        dg_dict = _best(lambda: degeneracy_ordering(graph, backend="dict"))
        dg_csr = _best(lambda: degeneracy_ordering(graph, backend="csr"))
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
            "Flat-array kernel vs dict backend (hot-path peeling)",
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
    """dict/csr output equality for one workload (cheap ops only; the
    exhaustive sweep lives in tests/test_kernel_equivalence.py)."""
    assert bfs_distances(graph, sources, backend="csr") == bfs_distances(
        graph, sources, backend="dict"
    )
    assert connected_components(graph, backend="csr") == connected_components(
        graph, backend="dict"
    )
    heads_dict = partial_network_decomposition(graph, 0.3, seed=7, backend="dict")
    heads_csr = partial_network_decomposition(graph, 0.3, seed=7, backend="csr")
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
            lambda: power_graph(graph, radius, backend="dict"), TRAVERSAL_REPEATS
        )
        power_csr = _best(
            lambda: snapshot.power_csr(radius), TRAVERSAL_REPEATS
        )
        bfs_dict = _best(
            lambda: bfs_distances(graph, sources, backend="dict"),
            TRAVERSAL_REPEATS,
        )
        bfs_csr = _best(
            lambda: bfs_distances(snapshot, sources, backend="csr"),
            TRAVERSAL_REPEATS,
        )
        cc_dict = _best(
            lambda: connected_components(graph, backend="dict"),
            TRAVERSAL_REPEATS,
        )
        cc_csr = _best(
            lambda: connected_components(snapshot, backend="csr"),
            TRAVERSAL_REPEATS,
        )
        # Ball carving consumes the power graph, each on its substrate.
        power_ref = power_graph(graph, radius, backend="dict")
        power_snap = snapshot.power_csr(radius)
        assert (
            network_decomposition(power_ref, backend="dict").classes
            == network_decomposition(power_snap, backend="csr").classes
        )
        nd_dict = _best(
            lambda: network_decomposition(power_ref, backend="dict"),
            TRAVERSAL_REPEATS,
        )
        nd_csr = _best(
            lambda: network_decomposition(power_snap, backend="csr"),
            TRAVERSAL_REPEATS,
        )
        mpx_dict = _best(
            lambda: partial_network_decomposition(graph, 0.3, seed=7, backend="dict"),
            TRAVERSAL_REPEATS,
        )
        mpx_csr = _best(
            lambda: partial_network_decomposition(snapshot, 0.3, seed=7, backend="csr"),
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
            "CSR traversal + network decomposition vs dict backend",
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
# Sharded multi-worker peeling vs. the serial csr kernel
# ----------------------------------------------------------------------

SHARD_SPEEDUP_FLOOR = 1.5
SHARD_REPEATS = 5
SHARD_WORKER_COUNTS = (1, 2, 4)

# (name, asserted, threshold, factory).  The asserted workloads are
# wave cascades: peeling proceeds frontier by frontier (hundreds of
# waves), so the serial kernel pays a full O(n) scan per wave while the
# sharded backend's reconcile hands each wave its exact work-list.
# The unasserted ones are wave-poor (a handful of waves) — there both
# backends do the same bulk work and sharding is honestly ~1x; they are
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


def run_shard_comparison():
    rows = []
    json_rows = []
    asserted = []
    for name, assertable, threshold, make in SHARD_WORKLOADS:
        graph = make()
        snapshot = snapshot_of(graph)
        reference = h_partition(
            graph, threshold, backend="csr", snapshot=snapshot
        )
        csr_ms = _best(
            lambda: h_partition(
                graph, threshold, backend="csr", snapshot=snapshot
            ),
            SHARD_REPEATS,
        )
        best_speedup = 0.0
        for workers in SHARD_WORKER_COUNTS:
            sharded = h_partition(
                graph, threshold, backend="sharded",
                snapshot=snapshot, workers=workers,
            )
            # The backend's contract: bit-identical classes for every
            # worker count.
            assert sharded.classes == reference.classes
            sharded_ms = _best(
                lambda: h_partition(
                    graph, threshold, backend="sharded",
                    snapshot=snapshot, workers=workers,
                ),
                SHARD_REPEATS,
            )
            speedup = csr_ms / sharded_ms
            best_speedup = max(best_speedup, speedup)
            rows.append(
                (
                    name,
                    graph.n,
                    graph.m,
                    reference.num_classes,
                    workers,
                    f"{csr_ms * 1e3:.1f}",
                    f"{sharded_ms * 1e3:.1f}",
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
                    "workers": workers,
                    "csr_ms": round(csr_ms * 1e3, 3),
                    "sharded_ms": round(sharded_ms * 1e3, 3),
                    "speedup": round(speedup, 3),
                }
            )
        if assertable:
            asserted.append((name, best_speedup))

    emit(
        "shard",
        format_table(
            "Sharded multi-worker peeling vs serial csr kernel (n >= 50k)",
            [
                "workload",
                "n",
                "m",
                "waves",
                "workers",
                "csr ms",
                "sharded ms",
                "speedup",
            ],
            rows,
        ),
    )
    emit_json(
        "BENCH_shard",
        {
            "bench": "shard",
            "schema_version": 1,
            "mode": "snapshot" if SNAPSHOT_MODE else "assert",
            "threshold": SHARD_SPEEDUP_FLOOR,
            "worker_counts": list(SHARD_WORKER_COUNTS),
            "rows": json_rows,
            "asserted": [
                {"workload": name, "best_speedup": round(value, 3)}
                for name, value in asserted
            ],
        },
    )

    if not SNAPSHOT_MODE:
        for name, best in asserted:
            assert best >= SHARD_SPEEDUP_FLOOR, (
                f"{name}: best sharded speedup {best:.2f}x < "
                f"{SHARD_SPEEDUP_FLOOR}x at n >= 50k — the sharded "
                "backend's reason to exist"
            )
    return rows


# ----------------------------------------------------------------------
# Engine-backed parallel BFS vs. the serial csr kernel
# ----------------------------------------------------------------------

PARALLEL_BFS_SPEEDUP_FLOOR = 1.5
PARALLEL_BFS_REPEATS = 5
PARALLEL_BFS_WORKER_COUNTS = (1, 2, 4)

# (name, asserted, kind, factory).  The asserted workloads are
# dense-frontier BFS sweeps (multi-seed reachability and per-color-
# class scans): the serial csr sweep dedups every wave with a sort
# (O(h log h)) while the engine reconcile scatter-dedups in O(n + h),
# so the parallel path wins even single-core — mirroring the sharded
# peel's frontier-proportional story.  Sparse-frontier BFS (grid) and
# the ball carving are reported unasserted: their per-wave arrays are
# small, the engine is honestly ~1x there on one core, and the thread
# fan-out only adds on multi-core machines.
PARALLEL_BFS_WORKLOADS = [
    ("pref n=120k d=5 multi-seed bfs", True, "bfs",
     lambda: preferential_attachment(120000, 5, seed=51)),
    ("forests n=100k a=5 color-class bfs", True, "color_bfs",
     lambda: union_of_random_forests(100000, 5, seed=52)),
    ("grid 350x350 multi-seed bfs", False, "bfs",
     lambda: grid_graph(350, 350)),
    ("pref n=120k d=5 ball carving", False, "carving",
     lambda: preferential_attachment(120000, 5, seed=51)),
]


def _parallel_bfs_case(graph, kind):
    """``(serial_fn, parallel_fn_for_workers)`` for one workload."""
    from repro.graph.csr import bfs_distance_array
    from repro.parallel import engine_for, engine_for_offsets
    from repro.parallel import parallel_bfs_distance_array

    snap = snapshot_of(graph)
    if kind == "bfs":
        n = snap.num_vertices
        seeds = [0, n // 3, (2 * n) // 3]
        offsets, nbr = snap.vertex_offsets, snap.neighbor_ids

        def serial():
            return bfs_distance_array(offsets, nbr, n, seeds)

        def parallel(workers):
            return parallel_bfs_distance_array(
                offsets, nbr, n, seeds, engine=engine_for(snap, workers)
            )

    elif kind == "color_bfs":
        # One color class of the forest union (every 5th edge position
        # approximates a per-color subset) extracted as a sub-CSR over
        # the host indices — the Session.sub_csr shape.
        eids = snap.edge_id.tolist()[::5]
        offsets, nbr, _eids = snap.edge_subset_csr_arrays(eids)
        n = snap.num_vertices
        seeds = [0, n // 2]

        def serial():
            return bfs_distance_array(offsets, nbr, n, seeds)

        def parallel(workers):
            return parallel_bfs_distance_array(
                offsets, nbr, n, seeds,
                engine=engine_for_offsets(offsets, workers),
            )

    else:  # carving
        def serial():
            return network_decomposition(graph, backend="csr").classes

        def parallel(workers):
            return network_decomposition(
                graph, backend="parallel", workers=workers
            ).classes

    return serial, parallel


def run_parallel_bfs_comparison():
    import numpy as np

    rows = []
    json_rows = []
    asserted = []
    for name, assertable, kind, make in PARALLEL_BFS_WORKLOADS:
        graph = make()
        serial, parallel = _parallel_bfs_case(graph, kind)
        reference = serial()
        csr_ms = _best(serial, PARALLEL_BFS_REPEATS)
        best_speedup = 0.0
        for workers in PARALLEL_BFS_WORKER_COUNTS:
            result = parallel(workers)
            # The engine's contract: bit-identical outputs for every
            # worker count.
            if isinstance(reference, np.ndarray):
                assert np.array_equal(result, reference)
            else:
                assert result == reference
            parallel_ms = _best(lambda: parallel(workers), PARALLEL_BFS_REPEATS)
            speedup = csr_ms / parallel_ms
            best_speedup = max(best_speedup, speedup)
            rows.append(
                (
                    name,
                    graph.n,
                    graph.m,
                    kind,
                    workers,
                    f"{csr_ms * 1e3:.1f}",
                    f"{parallel_ms * 1e3:.1f}",
                    f"{speedup:.2f}x",
                )
            )
            json_rows.append(
                {
                    "workload": name,
                    "n": graph.n,
                    "m": graph.m,
                    "op": kind,
                    "workers": workers,
                    "csr_ms": round(csr_ms * 1e3, 3),
                    "parallel_ms": round(parallel_ms * 1e3, 3),
                    "speedup": round(speedup, 3),
                }
            )
        if assertable:
            asserted.append((name, best_speedup))

    emit(
        "parallel_bfs",
        format_table(
            "Engine-backed parallel BFS vs serial csr kernel (n >= 50k)",
            [
                "workload",
                "n",
                "m",
                "op",
                "workers",
                "csr ms",
                "parallel ms",
                "speedup",
            ],
            rows,
        ),
    )
    emit_json(
        "BENCH_parallel_bfs",
        {
            "bench": "parallel_bfs",
            "schema_version": 1,
            "mode": "snapshot" if SNAPSHOT_MODE else "assert",
            "threshold": PARALLEL_BFS_SPEEDUP_FLOOR,
            "worker_counts": list(PARALLEL_BFS_WORKER_COUNTS),
            "rows": json_rows,
            "asserted": [
                {"workload": name, "best_speedup": round(value, 3)}
                for name, value in asserted
            ],
        },
    )

    if not SNAPSHOT_MODE:
        for name, best in asserted:
            assert best >= PARALLEL_BFS_SPEEDUP_FLOOR, (
                f"{name}: best parallel speedup {best:.2f}x < "
                f"{PARALLEL_BFS_SPEEDUP_FLOOR}x at n >= 50k — the "
                "engine-backed BFS path's reason to exist"
            )
    return rows


# ----------------------------------------------------------------------
# Simultaneous carve rule vs the doubling carve (PR-6)
# ----------------------------------------------------------------------

CARVE_REPEATS = 3
CARVE_SPEEDUP_FLOOR = 1.5
CARVE_WORKER_COUNTS = (1, 2, 4)

# Grids are the doubling rule's worst case at scale: balls stay small
# (planar growth never doubles for long), so the sequential carve pays
# ~n ball setups per class while the simultaneous carve finishes the
# class in O(log n) whole-frontier waves.
CARVE_WORKLOADS = [
    ("grid 250x200", True, lambda: grid_graph(250, 200)),
    ("grid 320x400", True, lambda: grid_graph(320, 400)),
]


def run_carve_comparison():
    rows = []
    json_rows = []
    asserted = []
    for name, assertable, make in CARVE_WORKLOADS:
        graph = make()

        def doubling():
            return network_decomposition(graph, backend="csr").classes

        def simultaneous(workers):
            return network_decomposition(
                graph,
                backend="parallel",
                workers=workers,
                carve_rule="simultaneous",
            ).classes

        # One timed shot for the baseline: it is tens of times slower
        # than the thing it baselines, so repeat-noise is irrelevant
        # and repeats would dominate the bench's runtime.
        start = time.perf_counter()
        doubling()
        doubling_ms = (time.perf_counter() - start) * 1e3

        reference = network_decomposition(
            graph, backend="csr", carve_rule="simultaneous"
        ).classes
        best_speedup = 0.0
        for workers in CARVE_WORKER_COUNTS:
            # Bit-identical classes for every worker count — the
            # simultaneous rule's determinism contract.
            assert simultaneous(workers) == reference
            sim_ms = _best(lambda: simultaneous(workers), CARVE_REPEATS) * 1e3
            speedup = doubling_ms / sim_ms
            best_speedup = max(best_speedup, speedup)
            rows.append(
                (
                    name,
                    graph.n,
                    graph.m,
                    workers,
                    f"{doubling_ms:.1f}",
                    f"{sim_ms:.1f}",
                    f"{speedup:.2f}x",
                )
            )
            json_rows.append(
                {
                    "workload": name,
                    "n": graph.n,
                    "m": graph.m,
                    "workers": workers,
                    "doubling_ms": round(doubling_ms, 3),
                    "simultaneous_ms": round(sim_ms, 3),
                    "speedup": round(speedup, 3),
                }
            )
        if assertable:
            asserted.append((name, best_speedup))

    emit(
        "carve",
        format_table(
            "Simultaneous carve rule vs doubling csr carve (n >= 50k)",
            [
                "workload",
                "n",
                "m",
                "workers",
                "doubling ms",
                "simultaneous ms",
                "speedup",
            ],
            rows,
        ),
    )
    emit_json(
        "BENCH_carve",
        {
            "bench": "carve",
            "schema_version": 1,
            "mode": "snapshot" if SNAPSHOT_MODE else "assert",
            "threshold": CARVE_SPEEDUP_FLOOR,
            "worker_counts": list(CARVE_WORKER_COUNTS),
            "rows": json_rows,
            "asserted": [
                {"workload": name, "best_speedup": round(value, 3)}
                for name, value in asserted
            ],
        },
    )

    if not SNAPSHOT_MODE:
        for name, best in asserted:
            assert best >= CARVE_SPEEDUP_FLOOR, (
                f"{name}: best simultaneous-carve speedup {best:.2f}x < "
                f"{CARVE_SPEEDUP_FLOOR}x at n >= 50k — the simultaneous "
                "rule's reason to exist"
            )
    return rows


# ----------------------------------------------------------------------
# Concurrent pass schedule vs serial per-class sweep (PR-7)
# ----------------------------------------------------------------------

PASSES_REPEATS = 3
PASSES_SPEEDUP_FLOOR = 1.3
PASSES_WORKER_COUNTS = (1, 2, 4)
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


# Many mid-sized classes are the serial schedule's worst case: each
# class pays its own union-find rooting + per-class BFS, while the
# concurrent schedule stacks them all into one array pass.
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
]


def run_passes_comparison():
    rows = []
    json_rows = []
    asserted = []
    for name, assertable, make in PASSES_WORKLOADS:
        graph, coloring = make()

        def serial():
            return depth_cut(
                graph,
                coloring,
                PASSES_Z,
                seed=PASSES_SEED,
                backend="csr",
                schedule="serial",
            )

        def concurrent(workers):
            return depth_cut(
                graph,
                coloring,
                PASSES_Z,
                seed=PASSES_SEED,
                backend="parallel",
                workers=workers,
                schedule="concurrent",
            )

        reference = serial()
        serial_ms = _best(serial, PASSES_REPEATS) * 1e3
        best_speedup = 0.0
        for workers in PASSES_WORKER_COUNTS:
            # Bit-identical cuts for every worker count — the pipeline
            # determinism contract (serial is the reference schedule).
            result = concurrent(workers)
            assert result.kept == reference.kept
            assert result.deleted == reference.deleted
            assert result.deletion_tail == reference.deletion_tail
            conc_ms = _best(lambda: concurrent(workers), PASSES_REPEATS) * 1e3
            speedup = serial_ms / conc_ms
            best_speedup = max(best_speedup, speedup)
            rows.append(
                (
                    name,
                    graph.n,
                    graph.m,
                    workers,
                    f"{serial_ms:.1f}",
                    f"{conc_ms:.1f}",
                    f"{speedup:.2f}x",
                )
            )
            json_rows.append(
                {
                    "workload": name,
                    "n": graph.n,
                    "m": graph.m,
                    "workers": workers,
                    "serial_ms": round(serial_ms, 3),
                    "concurrent_ms": round(conc_ms, 3),
                    "speedup": round(speedup, 3),
                }
            )
        if assertable:
            asserted.append((name, best_speedup))

    emit(
        "passes",
        format_table(
            "Concurrent pass schedule vs serial depth_cut sweep (n >= 50k)",
            [
                "workload",
                "n",
                "m",
                "workers",
                "serial ms",
                "concurrent ms",
                "speedup",
            ],
            rows,
        ),
    )
    emit_json(
        "BENCH_passes",
        {
            "bench": "passes",
            "schema_version": 1,
            "mode": "snapshot" if SNAPSHOT_MODE else "assert",
            "threshold": PASSES_SPEEDUP_FLOOR,
            "worker_counts": list(PASSES_WORKER_COUNTS),
            "rows": json_rows,
            "asserted": [
                {"workload": name, "best_speedup": round(value, 3)}
                for name, value in asserted
            ],
        },
    )

    if not SNAPSHOT_MODE:
        for name, best in asserted:
            assert best >= PASSES_SPEEDUP_FLOOR, (
                f"{name}: best concurrent-schedule speedup {best:.2f}x < "
                f"{PASSES_SPEEDUP_FLOOR}x at n >= 50k — the concurrent "
                "schedule's reason to exist"
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


def run_delta_comparison():
    rows = []
    json_rows = []
    asserted = []
    cfg = DecompositionConfig(backend="csr", validation="none")
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
        backend="csr",
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


def bench_carve(benchmark=None):
    if benchmark is None:
        run_carve_comparison()
    else:
        from harness import once

        once(benchmark, run_carve_comparison)


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
    bench_carve()
    bench_passes()
    bench_delta()
    bench_ooc()
