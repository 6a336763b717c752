"""Delta-engine equivalence corpus (repro.service.delta).

The hard contract under test: after ``Session.apply_delta``, every
watched decomposition is **bit-identical** to recomputing the task
from scratch on the mutated graph — for every mutation mix, on both
the repair and the fallback path, and under configs loaded from
payloads that name a retired substrate.  The corpus drives ~200 seeded
mutation streams (insert-only / delete-only / mixed, plus dirty-fraction
cutoff crossings that force the fallback path) and checks each batch
against a fresh session on a copy of the graph.

Alongside the corpus: unit equivalence of the repaired H-partition
waves, byte-equality of the patched CSR snapshot, the O(|delta|)
content digest vs a from-scratch rehash, and the
watch/unwatch/current session surface.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import DecompositionConfig, GraphError, ValidationError
from repro.graph.csr import CSRGraph, EdgeArrayMap
from repro.graph.generators import union_of_random_forests
from repro.service import delta as delta_module
from repro.service.delta import (
    JOURNAL_CHAIN_SEED,
    chain_digest,
    ensure_delta_state,
    patched_snapshot,
    segment_kth_largest,
)


# ----------------------------------------------------------------------
# Stream machinery
# ----------------------------------------------------------------------


def random_graph(rng, n, m):
    graph = repro.MultiGraph.with_vertices(n)
    for _ in range(m):
        u = rng.integers(0, n)
        v = rng.integers(0, n)
        if u != v:
            graph.add_edge(int(u), int(v))
    return graph


def random_batch(rng, graph, kind, size):
    """One (inserts, deletes) batch of the requested mix."""
    inserts, deletes = [], []
    if kind in ("insert", "mixed"):
        n = graph.n
        for _ in range(size):
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u != v:
                inserts.append((u, v))
    if kind in ("delete", "mixed"):
        ids = graph.edge_ids()
        take = min(size, len(ids))
        if take:
            picks = rng.choice(len(ids), size=take, replace=False)
            deletes = [ids[int(i)] for i in picks]
    return inserts, deletes


WATCHES = (
    ("orientation", {"method": "hpartition"}),
    ("pseudoforest", {"method": "hpartition"}),
)


def assert_matches_scratch(session, cfg, watches=WATCHES):
    """Every watched result equals a from-scratch recompute on a copy
    of the mutated graph (fresh session: no oracle, no delta state)."""
    for task, kwargs in watches:
        maintained = session.current(task)
        fresh = repro.Session(session.graph.copy(), cfg).decompose(
            task, **kwargs
        )
        assert maintained.coloring == fresh.coloring, (
            f"{task}: maintained coloring diverged from scratch recompute"
        )
        for attr in ("bound", "k"):
            assert getattr(maintained, attr, None) == getattr(
                fresh, attr, None
            ), f"{task}: {attr} diverged"


def run_stream(seed, kind, cfg, batches=3, batch_size=4, n=40, m=90,
               watches=WATCHES):
    """One seeded mutation stream; returns the delta reports."""
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n, m)
    session = repro.Session(graph, cfg)
    for task, kwargs in watches:
        session.watch(task, **kwargs)
    reports = []
    for _ in range(batches):
        inserts, deletes = random_batch(rng, graph, kind, batch_size)
        reports.append(session.apply_delta(inserts, deletes))
        assert_matches_scratch(session, cfg, watches)
    return reports


# ----------------------------------------------------------------------
# The corpus: ~200 seeded streams
# ----------------------------------------------------------------------

# Fast tier: 3 mutation mixes x 10 seeds x 2 legacy payloads = 60
# distinct streams.  Each payload names a value of the retired
# ``backend`` field, which loads as the default config; the "dict"
# payload drives seeds 10-19 and the "csr" payload seeds 0-9, so no
# stream runs twice.
FAST_LEGACY_BACKENDS = ["csr", "dict"]


@pytest.mark.parametrize("kind", ["insert", "delete", "mixed"])
@pytest.mark.parametrize("backend", ["dict", "csr"])
@pytest.mark.parametrize("seed", range(10))
def test_stream_corpus_fast(kind, backend, seed):
    cfg = DecompositionConfig.from_json(
        {"backend": backend, "validation": "basic"}
    )
    assert cfg == DecompositionConfig(validation="basic")
    stream = seed + 10 * FAST_LEGACY_BACKENDS.index(backend)
    reports = run_stream(stream * 7 + 1, kind, cfg)
    assert [r.seq for r in reports] == [1, 2, 3]


# Legacy tier: configs loaded from payloads naming a retired backend
# (both names are dropped) x stream lengths {1, 2, 4} x 20 seeds = 120
# distinct streams.  Each retired name drives its own 20 seeds, so no
# stream runs twice.
RETIRED_BACKENDS = ["sharded", "parallel"]


@pytest.mark.slow
@pytest.mark.parametrize("retired_backend", RETIRED_BACKENDS)
@pytest.mark.parametrize("batches", [1, 2, 4])
@pytest.mark.parametrize("seed", range(20))
def test_stream_corpus_engine(retired_backend, batches, seed):
    cfg = DecompositionConfig.from_json(
        {"backend": retired_backend, "validation": "basic"}
    )
    assert cfg == DecompositionConfig(validation="basic")
    stream = seed + 20 * RETIRED_BACKENDS.index(retired_backend)
    reports = run_stream(stream * 13 + 3, "mixed", cfg, batches=batches)
    assert len(reports) == batches


# Threshold tier: 20 streams with a tiny dirty-fraction budget and
# heavy batches, so repairs keep crossing into the fallback path.  The
# cutoff is a module constant; the test lowers it through monkeypatch.
@pytest.mark.parametrize("seed", range(20))
def test_stream_corpus_threshold_crossing(seed, monkeypatch):
    monkeypatch.setattr(delta_module, "FALLBACK_DIRTY_FRACTION", 0.02)
    cfg = DecompositionConfig(validation="basic")
    reports = run_stream(
        seed * 31 + 5, "mixed", cfg, batches=3, batch_size=10
    )
    modes = {w.mode for r in reports for w in r.watches}
    # With a 2% budget on n=40 every real cascade must fall back;
    # the contract holds either way (assert_matches_scratch above).
    assert "full" in modes or all(
        r.dirty_vertices <= 0.02 * 40 for r in reports
    )


def test_corpus_exercises_both_paths(monkeypatch):
    """Pin a stream that provably repairs incrementally and one that
    provably falls back, so a silent regression in either path cannot
    hide behind the corpus's randomness."""
    from repro.graph.generators import grid_graph

    cfg = DecompositionConfig(validation="basic")
    reports = run_stream(2, "mixed", cfg, batches=4, batch_size=2)
    assert any(
        w.mode == "incremental" for r in reports for w in r.watches
    )
    # A grid with pseudoarboricity pinned to 1 peels as a long wave
    # gradient: deleting an interior edge changes waves, and a zero
    # dirty budget turns any change into a forced fallback.
    grid = grid_graph(10, 10)
    cfg_tight = DecompositionConfig(validation="basic")
    monkeypatch.setattr(delta_module, "FALLBACK_DIRTY_FRACTION", 0.0)
    session = repro.Session(grid, cfg_tight)
    session.watch("orientation", method="hpartition", pseudoarboricity=1)
    # joining two degree-2 corners pushes both above the threshold, so
    # their wave values must change: the repair cannot stay at zero
    # dirty vertices, and the zero budget forces the fallback
    corners = [v for v in grid.vertices() if grid.degree(v) == 2]
    report = session.apply_delta(inserts=[(corners[0], corners[-1])])
    watch = report.watches[0]
    assert watch.mode == "full" and watch.reason == "refresher fell back"
    fresh = repro.Session(grid.copy(), cfg_tight).decompose(
        "orientation", method="hpartition", pseudoarboricity=1
    )
    assert session.current("orientation").coloring == fresh.coloring
    # the dropped oracle entry re-records, so the next batch repairs
    monkeypatch.setattr(delta_module, "FALLBACK_DIRTY_FRACTION", 0.5)
    report = session.apply_delta(inserts=[(0, 1)])
    assert report.watches[0].mode == "incremental"


def test_watch_without_refresher_falls_back_full():
    cfg = DecompositionConfig(validation="basic")
    watches = (("forest", {}),) + WATCHES
    reports = run_stream(5, "mixed", cfg, batches=2, watches=watches)
    forest = [
        w for r in reports for w in r.watches if w.task == "forest"
    ]
    assert forest and all(w.mode == "full" for w in forest)
    assert all(w.reason == "no incremental refresher" for w in forest)


# ----------------------------------------------------------------------
# Wave repair and snapshot patching units
# ----------------------------------------------------------------------


def test_repaired_waves_equal_fresh_peel():
    """The oracle's repaired H-partition equals a fresh peel's classes
    exactly (uniqueness of the wave fixed point makes this a hard
    equality, not an approximation)."""
    from repro.decomposition.hpartition import h_partition

    rng = np.random.default_rng(3)
    graph = random_graph(rng, 50, 120)
    session = repro.Session(graph, DecompositionConfig())
    session.watch("orientation", method="hpartition")
    state = ensure_delta_state(session)
    for _ in range(5):
        ins, dels = random_batch(rng, graph, "mixed", 4)
        session.apply_delta(ins, dels)
        for threshold, entry in state.oracle.entries.items():
            fresh = h_partition(graph.copy(), threshold)
            assert entry.classes == fresh.classes, (
                f"threshold {threshold}: repaired classes != fresh peel"
            )


SNAPSHOT_ARRAYS = (
    "vertex_offsets", "neighbor_ids", "half_edge_ids", "edge_id",
    "edge_u", "edge_v", "edge_u_ids", "edge_v_ids", "vertex_ids",
)


def assert_same_snapshot(patched, full):
    for attr in SNAPSHOT_ARRAYS:
        got, want = getattr(patched, attr), getattr(full, attr)
        assert got.dtype == want.dtype, f"snapshot array {attr}: dtype"
        assert np.array_equal(got, want), f"snapshot array {attr} diverged"
    assert patched._identity_edges == full._identity_edges
    assert (patched._index_of is None) == (full._index_of is None)


def patch_and_check(graph, snap, inserts, deletes):
    """Apply one batch to ``graph``, splice ``snap`` and compare it with
    a full rebuild; returns the spliced snapshot."""
    dels = []
    for eid in deletes:
        u, v = graph.endpoints(eid)
        dels.append((eid, u, v))
        graph.remove_edge(eid)
    ins = [(graph.add_edge(u, v), u, v) for u, v in inserts]
    patched, kept = patched_snapshot(snap, graph, ins, dels)
    assert_same_snapshot(patched, CSRGraph.from_multigraph(graph))
    assert kept is not None and kept.sum() == snap.num_edges - len(dels)
    return patched


def graph_on(vertex_ids, pairs):
    graph = repro.MultiGraph()
    for v in vertex_ids:
        graph.add_vertex(v)
    for u, v in pairs:
        graph.add_edge(u, v)
    return graph


def test_patched_snapshot_matches_full_rebuild():
    rng = np.random.default_rng(9)
    graph = random_graph(rng, 30, 70)
    ins = []
    for _ in range(6):
        u, v = int(rng.integers(0, 30)), int(rng.integers(0, 30))
        if u != v:
            ins.append((u, v))
    patch_and_check(
        graph, CSRGraph.from_multigraph(graph), ins, graph.edge_ids()[:5]
    )


@pytest.mark.parametrize(
    "vertex_ids", [list(range(6)), [40, 3, 17, 8, 99, 21]],
    ids=["identity", "gappy"],
)
def test_patched_snapshot_chain_named_cases(vertex_ids):
    """One chain through every splice corner on purpose: parallel
    edges, a vertex losing all its edges, a re-insert parallel to an
    edge deleted in the same batch, the slot tie between the v-side
    end of segment b and the u-side slot of segment b + 1, and empty,
    insert-only and delete-only batches."""
    a, b, c, d, e, f = vertex_ids
    graph = graph_on(
        vertex_ids, [(a, b), (a, b), (b, a), (c, d), (d, e), (a, f), (e, c)]
    )
    snap = CSRGraph.from_multigraph(graph)
    snap = patch_and_check(graph, snap, [], [])
    snap = patch_and_check(graph, snap, [(b, c), (c, b)], [])
    # every edge at a (dense index 0) goes
    snap = patch_and_check(graph, snap, [], graph.incident_edges(a))
    # delete (c, d) and insert it again in both directions
    cd = graph.edges_between(c, d)[0]
    snap = patch_and_check(graph, snap, [(c, d), (d, c)], [cd])
    # b has no u-side halves left: (b, a) lands at a's end and b's
    # u-slot, the same old position
    snap = patch_and_check(graph, snap, [(b, a), (a, b), (f, e)], [])
    snap = patch_and_check(
        graph, snap, [(e, f), (f, a)], graph.edge_ids()[::2]
    )
    snap = patch_and_check(graph, snap, [], graph.edge_ids())
    patch_and_check(graph, snap, [(a, b)], [])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_patched_snapshot_chain_property(data):
    """A chain of splices, each on the previous spliced snapshot,
    equals ``from_multigraph`` on every array after every batch."""
    n = data.draw(st.integers(2, 8), label="n")
    if data.draw(st.booleans(), label="identity ids"):
        vertex_ids = list(range(n))
    else:
        vertex_ids = data.draw(
            st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True),
            label="vertex ids",
        )
    pair = st.tuples(
        st.sampled_from(vertex_ids), st.sampled_from(vertex_ids)
    ).filter(lambda p: p[0] != p[1])
    graph = graph_on(
        vertex_ids, data.draw(st.lists(pair, max_size=16), label="edges")
    )
    snap = CSRGraph.from_multigraph(graph)
    for _ in range(data.draw(st.integers(1, 5), label="batches")):
        kind = data.draw(st.sampled_from(
            ["empty", "insert", "delete", "mixed", "clear", "reinsert",
             "adjacent"]
        ))
        inserts, deletes = [], []
        live = graph.edge_ids()
        if kind in ("delete", "mixed") and live:
            deletes = data.draw(st.lists(
                st.sampled_from(live), max_size=len(live), unique=True
            ))
        if kind == "clear":
            deletes = graph.incident_edges(data.draw(st.sampled_from(
                vertex_ids
            )))
        if kind == "reinsert" and live:
            eid = data.draw(st.sampled_from(live))
            u, v = graph.endpoints(eid)
            deletes = [eid]
            inserts = [(u, v) if data.draw(st.booleans()) else (v, u)]
        if kind == "adjacent":
            i = data.draw(st.integers(0, n - 2))
            lo, hi = vertex_ids[i], vertex_ids[i + 1]
            inserts = [(hi, lo), (lo, hi)]
        if kind in ("insert", "mixed", "clear", "adjacent"):
            inserts += data.draw(st.lists(pair, max_size=6))
        snap = patch_and_check(graph, snap, inserts, deletes)


# Two random forests peeled with pseudoarboricity pinned to 2: several
# waves deep, and the repair changes waves on every batch.
DEEP_WATCHES = tuple(
    (task, dict(kwargs, pseudoarboricity=2)) for task, kwargs in WATCHES
)
DEEP_CONFIG = DecompositionConfig(validation="basic")


def stream_tails_check(graph, rng, batches, monkeypatch):
    """Watch orientation + pseudoforest, run mixed batches, and after
    each one compare every watch's patched tails with a full
    ``_tails_arrays`` pass; returns the session, the snapshots the full
    pass ran on inside ``apply_delta``, and the dirty count per batch."""
    session = repro.Session(graph, DEEP_CONFIG)
    for task, kwargs in DEEP_WATCHES:
        session.watch(task, **kwargs)
    state = ensure_delta_state(session)
    full_calls = []
    real = delta_module._tails_arrays

    def counting(snap, waves):
        full_calls.append(snap)
        return real(snap, waves)

    monkeypatch.setattr(delta_module, "_tails_arrays", counting)
    vertex_ids = graph.vertices()
    dirty = []
    for _ in range(batches):
        inserts = []
        for _ in range(4):
            u, v = rng.choice(len(vertex_ids), size=2, replace=False)
            inserts.append((vertex_ids[int(u)], vertex_ids[int(v)]))
        live = graph.edge_ids()
        picks = rng.choice(len(live), size=min(4, len(live)), replace=False)
        report = session.apply_delta(inserts, [live[int(i)] for i in picks])
        dirty.append(report.dirty_vertices)
        snap = session.snapshot()
        for task, _kwargs in DEEP_WATCHES:
            extras = session._watches[task].extras
            waves = state.oracle.entry(extras["threshold"]).waves
            want_ids, want_idx = real(snap, waves)
            assert extras["orientation"].eids is snap.edge_id
            assert np.array_equal(extras["orientation"].vals, want_ids)
            assert np.array_equal(extras["tails_idx"], want_idx)
        assert report.mode == "incremental"
        assert_matches_scratch(session, DEEP_CONFIG, DEEP_WATCHES)
    return session, full_calls, dirty


@pytest.mark.parametrize("gappy", [False, True], ids=["identity", "gappy"])
def test_patched_tails_equal_full_tails(gappy, monkeypatch):
    ids = [3 * i + 7 for i in range(40)] if gappy else list(range(40))
    forests = union_of_random_forests(40, 2, seed=11)
    graph = graph_on(ids, [(ids[u], ids[v]) for _e, u, v in forests.edges()])
    _session, full_calls, dirty = stream_tails_check(
        graph, np.random.default_rng(11), 6, monkeypatch
    )
    # every batch was spliced: priming left tails aligned with the
    # snapshot, and each patch keeps them aligned; and waves moved, so
    # the re-ruled edges at changed vertices were exercised
    assert full_calls == []
    assert sum(dirty) > 0


def test_unaligned_previous_tails_take_full_recompute(monkeypatch):
    graph = union_of_random_forests(40, 2, seed=5)
    session, full_calls, _dirty = stream_tails_check(
        graph, np.random.default_rng(5), 1, monkeypatch
    )
    # re-key the pseudoforest's tails on an equal copy of edge_id: no
    # longer aligned with the cached snapshot by identity
    extras = session._watches["pseudoforest"].extras
    prev = extras["orientation"]
    extras["orientation"] = EdgeArrayMap(prev.eids.copy(), prev.vals)
    live = graph.edge_ids()
    session.apply_delta([(0, 1), (2, 3)], live[:3])
    assert len(full_calls) == 1
    snap = session.snapshot()
    waves = ensure_delta_state(session).oracle.entry(
        extras["threshold"]
    ).waves
    want_ids, want_idx = delta_module._tails_arrays(snap, waves)
    assert np.array_equal(extras["orientation"].vals, want_ids)
    assert np.array_equal(extras["tails_idx"], want_idx)
    assert_matches_scratch(session, DEEP_CONFIG, DEEP_WATCHES)


def test_segment_kth_largest_matches_reference():
    rng = np.random.default_rng(21)
    lengths = rng.integers(0, 7, size=40)
    values = rng.integers(0, 100, size=int(lengths.sum()))
    for k in (0, 1, 2, 4):
        got = segment_kth_largest(values, lengths, k, fill=-1)
        pos = 0
        for i, length in enumerate(lengths):
            seg = sorted(values[pos:pos + length], reverse=True)
            pos += length
            expected = seg[k] if length > k else -1
            assert got[i] == expected


# ----------------------------------------------------------------------
# Content digest + journal chain
# ----------------------------------------------------------------------


def test_content_digest_incremental_equals_scratch():
    rng = np.random.default_rng(4)
    graph = random_graph(rng, 40, 80)
    session = repro.Session(graph, DecompositionConfig())
    session.watch("orientation", method="hpartition")
    baseline = session.content_digest()
    assert baseline == repro.Session(graph.copy()).content_digest()
    for _ in range(4):
        ins, dels = random_batch(rng, graph, "mixed", 3)
        session.apply_delta(ins, dels)
        # maintained in O(|delta|) — equal to rehashing from scratch
        assert (
            session.content_digest()
            == repro.Session(graph.copy()).content_digest()
        )
    assert session.content_digest() != baseline


def test_content_digest_resyncs_after_out_of_band_mutation():
    graph = union_of_random_forests(30, 2, seed=1)
    session = repro.Session(graph)
    before = session.content_digest()
    graph.add_edge(0, 1)  # bypasses apply_delta entirely
    after = session.content_digest()
    assert after != before
    assert after == repro.Session(graph.copy()).content_digest()


def test_journal_chain_links_batches():
    graph = union_of_random_forests(20, 2, seed=2)
    session = repro.Session(graph)
    session.watch("orientation", method="hpartition")
    r1 = session.apply_delta(inserts=[(0, 5)])
    r2 = session.apply_delta(deletes=[r1.inserted[0]])
    expected = chain_digest(
        JOURNAL_CHAIN_SEED,
        {"seq": 1, "inserts": [[0, 5]], "deletes": []},
    )
    assert r1.chain == expected
    expected = chain_digest(
        expected,
        {"seq": 2, "inserts": [], "deletes": [r1.inserted[0]]},
    )
    assert r2.chain == expected


# ----------------------------------------------------------------------
# Session surface: watch / unwatch / current / atomicity / reports
# ----------------------------------------------------------------------


def test_watch_unwatch_current():
    graph = union_of_random_forests(25, 2, seed=3)
    session = repro.Session(graph)
    with pytest.raises(ValidationError):
        session.current("orientation")
    result = session.watch("orientation", method="hpartition")
    assert session.current("orientation") is result
    assert session.watched() == ("orientation",)
    session.watch("pseudoforest", method="hpartition")
    assert session.watched() == ("orientation", "pseudoforest")
    session.unwatch("orientation")
    assert session.watched() == ("pseudoforest",)
    session.unwatch()
    assert session.watched() == ()


def test_bad_batch_is_atomic():
    graph = union_of_random_forests(20, 2, seed=4)
    session = repro.Session(graph)
    session.watch("orientation", method="hpartition")
    m_before = graph.m
    digest_before = session.content_digest()
    with pytest.raises(GraphError):
        session.apply_delta(inserts=[(0, 1)], deletes=[10 ** 9])
    with pytest.raises(GraphError):
        session.apply_delta(inserts=[(3, 3)])  # self-loop
    with pytest.raises(GraphError):
        session.apply_delta(inserts=[(0, 10 ** 6)])  # missing vertex
    eid = graph.edge_ids()[0]
    with pytest.raises(GraphError):
        session.apply_delta(deletes=[eid, eid])  # duplicate delete
    assert graph.m == m_before
    assert session.content_digest() == digest_before
    # the engine still works after rejected batches
    report = session.apply_delta(inserts=[(0, 1)])
    assert report.seq == 1


def test_delta_reports_accumulate_and_expose_shard_dirty():
    cfg = DecompositionConfig(validation="basic")
    rng = np.random.default_rng(8)
    graph = random_graph(rng, 60, 140)
    session = repro.Session(graph, cfg)
    session.watch("orientation", method="hpartition")
    for _ in range(3):
        ins, dels = random_batch(rng, graph, "mixed", 3)
        session.apply_delta(ins, dels)
    reports = session.delta_reports()
    assert [r.seq for r in reports] == [1, 2, 3]
    for report in reports:
        payload = report.to_json()
        assert payload["seq"] == report.seq
        assert payload["mode"] in ("incremental", "full")
    info = session.cache_info()
    assert info["delta"]["seq"] == 3
    assert info["delta"]["watches"] == 1


def test_session_releases_the_pre_delta_snapshot():
    """Neither the session nor the delta state keeps the snapshot a
    batch replaced: after ``prepare()``, a watch and one batch, the
    pre-delta ``CSRGraph`` can be collected."""
    import gc
    import weakref

    cfg = DecompositionConfig(validation="basic")
    graph = union_of_random_forests(60, 3, seed=4)
    session = repro.Session(graph, cfg)
    session.prepare()
    session.watch("orientation", method="hpartition")
    before = weakref.ref(session.snapshot())
    report = session.apply_delta(inserts=[(0, 1)], deletes=[0])
    assert report.mode == "incremental"
    gc.collect()
    assert before() is None
    assert session.snapshot().m == graph.m
    info = session.cache_info()["snapshot"]
    assert (info["hits"], info["misses"]) == (1, 2)


def test_oracle_reused_across_unrelated_queries():
    """A plain decompose between deltas rides the repaired oracle
    instead of re-peeling (the seam that makes full re-runs cheap)."""
    cfg = DecompositionConfig(validation="basic")
    graph = union_of_random_forests(40, 3, seed=9)
    session = repro.Session(graph, cfg)
    session.watch("orientation", method="hpartition")
    state = ensure_delta_state(session)
    hits_before = state.oracle.hits
    session.decompose("orientation", method="hpartition")
    assert state.oracle.hits > hits_before
