"""Delta-engine equivalence corpus (repro.service.delta).

The hard contract under test: after ``Session.apply_delta``, every
watched decomposition is **bit-identical** to recomputing the task
from scratch on the mutated graph — for every backend, worker count,
delta mode, and mutation mix.  The corpus drives ~200 seeded mutation
streams (insert-only / delete-only / mixed, plus dirty-fraction
threshold crossings that force the fallback path) and checks each
batch against a fresh session on a copy of the graph.

Alongside the corpus: unit equivalence of the repaired H-partition
waves, byte-equality of the patched CSR snapshot, the O(|delta|)
content digest vs a from-scratch rehash, the config knobs' validation
and JSON round-trip, and the watch/unwatch/current session surface.
"""

import numpy as np
import pytest

import repro
from repro import DecompositionConfig, GraphError, ValidationError
from repro.graph.csr import CSRGraph
from repro.graph.generators import union_of_random_forests
from repro.parallel import segment_kth_largest
from repro.service.delta import (
    JOURNAL_CHAIN_SEED,
    chain_digest,
    ensure_delta_state,
    patched_snapshot,
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

# Fast tier: 3 mutation mixes x 2 substrates x 10 seeds = 60 streams.
@pytest.mark.parametrize("kind", ["insert", "delete", "mixed"])
@pytest.mark.parametrize("backend", ["dict", "csr"])
@pytest.mark.parametrize("seed", range(10))
def test_stream_corpus_fast(kind, backend, seed):
    cfg = DecompositionConfig(backend=backend, validation="basic")
    reports = run_stream(seed * 7 + 1, kind, cfg)
    assert [r.seq for r in reports] == [1, 2, 3]


# Legacy tier: configs loaded from payloads naming a retired backend
# (both names load as csr) x stream lengths {1, 2, 4} x 20 seeds = 120
# distinct csr streams.  Each retired name drives its own 20 seeds, so
# no stream runs twice.
RETIRED_BACKENDS = ["sharded", "parallel"]


@pytest.mark.slow
@pytest.mark.parametrize("retired_backend", RETIRED_BACKENDS)
@pytest.mark.parametrize("batches", [1, 2, 4])
@pytest.mark.parametrize("seed", range(20))
def test_stream_corpus_engine(retired_backend, batches, seed):
    cfg = DecompositionConfig.from_json(
        {"backend": retired_backend, "validation": "basic"}
    )
    assert cfg.backend == "csr"
    stream = seed + 20 * RETIRED_BACKENDS.index(retired_backend)
    reports = run_stream(stream * 13 + 3, "mixed", cfg, batches=batches)
    assert len(reports) == batches


# Threshold tier: 20 streams with a tiny dirty-fraction budget and
# heavy batches, so repairs keep crossing into the fallback path.
@pytest.mark.parametrize("seed", range(20))
def test_stream_corpus_threshold_crossing(seed):
    cfg = DecompositionConfig(
        backend="csr", validation="basic", delta_threshold=0.02
    )
    reports = run_stream(
        seed * 31 + 5, "mixed", cfg, batches=3, batch_size=10
    )
    modes = {w.mode for r in reports for w in r.watches}
    # With a 2% budget on n=40 every real cascade must fall back;
    # the contract holds either way (assert_matches_scratch above).
    assert "full" in modes or all(
        r.dirty_vertices <= 0.02 * 40 for r in reports
    )


def test_corpus_exercises_both_paths():
    """Pin a stream that provably repairs incrementally and one that
    provably falls back, so a silent regression in either path cannot
    hide behind the corpus's randomness."""
    from repro.graph.generators import grid_graph

    cfg = DecompositionConfig(backend="csr", validation="basic")
    reports = run_stream(2, "mixed", cfg, batches=4, batch_size=2)
    assert any(
        w.mode == "incremental" for r in reports for w in r.watches
    )
    # A grid with pseudoarboricity pinned to 1 peels as a long wave
    # gradient: deleting an interior edge changes waves, and a zero
    # dirty budget turns any change into a forced fallback.
    grid = grid_graph(10, 10)
    cfg_tight = DecompositionConfig(
        backend="csr", validation="basic", delta_threshold=0.0
    )
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
    report = session.apply_delta(
        inserts=[(0, 1)], config=DecompositionConfig(
            backend="csr", validation="basic", delta_threshold=0.5
        )
    )
    assert report.watches[0].mode == "incremental"


@pytest.mark.parametrize("mode", ["auto", "incremental", "full"])
def test_delta_mode_never_changes_results(mode):
    cfg = DecompositionConfig(
        backend="csr", validation="basic", delta_mode=mode
    )
    reports = run_stream(17, "mixed", cfg, batches=3)
    if mode == "full":
        assert all(
            w.mode == "full" for r in reports for w in r.watches
        )


def test_watch_without_refresher_falls_back_full():
    cfg = DecompositionConfig(backend="csr", validation="basic")
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
    session = repro.Session(graph, DecompositionConfig(backend="csr"))
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


def test_patched_snapshot_matches_full_rebuild():
    rng = np.random.default_rng(9)
    graph = random_graph(rng, 30, 70)
    old = CSRGraph.from_multigraph(graph)
    dels = []
    for eid in graph.edge_ids()[:5]:
        u, v = graph.endpoints(eid)
        dels.append((eid, u, v))
        graph.remove_edge(eid)
    ins = []
    for _ in range(6):
        u, v = int(rng.integers(0, 30)), int(rng.integers(0, 30))
        if u != v:
            ins.append((graph.add_edge(u, v), u, v))
    patched, kept = patched_snapshot(old, graph, ins, dels)
    full = CSRGraph.from_multigraph(graph)
    for attr in (
        "vertex_offsets", "neighbor_ids", "edge_ids", "edge_id",
        "edge_u", "edge_v", "edge_u_ids", "edge_v_ids", "vertex_ids",
    ):
        assert np.array_equal(
            getattr(patched, attr), getattr(full, attr)
        ), f"snapshot array {attr} diverged"
    assert kept is not None and kept.sum() == old.num_edges - len(dels)


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
    session = repro.Session(graph, DecompositionConfig(backend="csr"))
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
# Config knobs
# ----------------------------------------------------------------------


def test_delta_knobs_validation():
    with pytest.raises(ValidationError):
        DecompositionConfig(delta_mode="sometimes")
    with pytest.raises(ValidationError):
        DecompositionConfig(delta_threshold=1.5)
    with pytest.raises(ValidationError):
        DecompositionConfig(delta_threshold=-0.1)
    with pytest.raises(ValidationError):
        DecompositionConfig(delta_threshold=True)


def test_delta_knobs_json_round_trip():
    cfg = DecompositionConfig(delta_mode="incremental", delta_threshold=0.4)
    payload = cfg.to_json()
    assert payload["delta_mode"] == "incremental"
    assert payload["delta_threshold"] == 0.4
    back = DecompositionConfig.from_json(payload)
    assert back.delta_mode == "incremental"
    assert back.delta_threshold == 0.4
    assert back == cfg


def test_per_call_config_overrides_session_default():
    cfg = DecompositionConfig(backend="csr", validation="basic")
    rng = np.random.default_rng(6)
    graph = random_graph(rng, 40, 90)
    session = repro.Session(graph, cfg)
    session.watch("orientation", method="hpartition")
    forced = DecompositionConfig(
        backend="csr", validation="basic", delta_mode="full"
    )
    report = session.apply_delta(inserts=[(0, 1)], config=forced)
    assert report.delta_mode == "full"
    assert all(w.mode == "full" for w in report.watches)
    assert_matches_scratch(session, cfg, (("orientation",
                                           {"method": "hpartition"}),))


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
    cfg = DecompositionConfig(backend="csr", validation="basic")
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


def test_oracle_reused_across_unrelated_queries():
    """A plain decompose between deltas rides the repaired oracle
    instead of re-peeling (the seam that makes full re-runs cheap)."""
    cfg = DecompositionConfig(backend="csr", validation="basic")
    graph = union_of_random_forests(40, 3, seed=9)
    session = repro.Session(graph, cfg)
    session.watch("orientation", method="hpartition")
    state = ensure_delta_state(session)
    hits_before = state.oracle.hits
    session.decompose("orientation", method="hpartition")
    assert state.oracle.hits > hits_before
