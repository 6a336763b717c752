"""Serve daemon + checkpoint/resume tests (repro.service).

Three layers:

* **Checkpointer units** — snapshot/restore round trip (graph bytes,
  id counters, journal chain), torn-tail tolerance, corruption
  detection;
* **in-process daemon** — the full op surface over a real socket
  (load, watch, delta, query dedup, stats, checkpoint, shutdown) plus
  the worker-pool shutdown regression;
* **subprocess crash/resume** — ``kill -9`` mid-stream then
  ``repro serve --resume`` must reproduce the uninterrupted run
  bit-identically (chain, coloring, content digest), and SIGTERM must
  exit 0 after a checkpoint-on-exit.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro import DecompositionConfig, GraphError
from repro.service import checkpoint as checkpoint_mod
from repro.service.checkpoint import Checkpointer, restore_session
from repro.service.client import ServeClient, ServeError
from repro.service.server import READY_PREFIX, ReproServer


def random_edges(rng, n, m):
    edges = []
    while len(edges) < m:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            edges.append((u, v))
    return edges


# ----------------------------------------------------------------------
# Checkpointer units
# ----------------------------------------------------------------------


def make_session(seed=0, n=40, m=90):
    rng = np.random.default_rng(seed)
    graph = repro.MultiGraph.from_edges(n, random_edges(rng, n, m))
    session = repro.Session(
        graph, DecompositionConfig(backend="csr", validation="basic")
    )
    session.watch("orientation", method="hpartition")
    return session


def test_checkpoint_round_trip(tmp_path):
    session = make_session()
    session.apply_delta(inserts=[(0, 1), (2, 3)])
    ckpt = Checkpointer(str(tmp_path))
    generation = ckpt.checkpoint(session)
    assert generation == 1
    ckpt.close()

    restored = checkpoint_mod.load(str(tmp_path))
    assert restored is not None
    assert restored.seq == 1 and restored.replayed == 0
    assert restored.graph._next_edge == session.graph._next_edge
    assert restored.graph._next_vertex == session.graph._next_vertex
    twin = restore_session(restored)
    assert twin.content_digest() == session.content_digest()
    assert twin.fingerprint() == session.fingerprint()
    assert (
        twin.current("orientation").coloring
        == session.current("orientation").coloring
    )
    # chains continue identically from the restored position
    a = session.apply_delta(inserts=[(5, 6)])
    b = twin.apply_delta(inserts=[(5, 6)])
    assert a.chain == b.chain and a.inserted == b.inserted


def test_checkpoint_resume_accepts_legacy_workers_key(tmp_path):
    """Checkpoints written while the config still had the ``workers``
    and ``schedule`` fields and accepted the ``mp`` backend name carry
    them in every config payload; resuming one must drop the keys, load
    ``mp`` as the csr backend it ran, and rebuild a bit-identical
    state."""
    session = make_session(seed=4)
    session.apply_delta(inserts=[(0, 1), (2, 3)])
    ckpt = Checkpointer(str(tmp_path))
    generation = ckpt.checkpoint(session)
    ckpt.close()

    state_path = tmp_path / f"state-{generation:06d}.json"
    meta = json.loads(state_path.read_text(encoding="utf-8"))
    meta["config"].update(workers=2, schedule="concurrent", backend="mp")
    for entry in meta["watches"]:
        assert entry["config"]["backend"] == "csr"
        entry["config"].update(workers=2, schedule="auto", backend="mp")
    state_path.write_text(json.dumps(meta, indent=2), encoding="utf-8")

    restored = checkpoint_mod.load(str(tmp_path))
    assert restored.config == session.config
    twin = restore_session(restored)
    assert twin.content_digest() == session.content_digest()
    assert twin.fingerprint() == session.fingerprint()
    assert (
        twin.current("orientation").coloring
        == session.current("orientation").coloring
    )
    a = session.apply_delta(inserts=[(5, 6)])
    b = twin.apply_delta(inserts=[(5, 6)])
    assert a.chain == b.chain and a.inserted == b.inserted


def test_checkpoint_journal_replay(tmp_path):
    session = make_session(seed=1)
    ckpt = Checkpointer(str(tmp_path))
    ckpt.checkpoint(session)
    for step in range(3):
        report = session.apply_delta(inserts=[(step, step + 10)])
        ckpt.journal(
            {
                "seq": report.seq,
                "inserts": [[step, step + 10]],
                "deletes": [],
            },
            report.chain,
        )
    ckpt.close()
    restored = checkpoint_mod.load(str(tmp_path))
    assert restored.replayed == 3 and restored.seq == 3
    twin = restore_session(restored)
    assert twin.content_digest() == session.content_digest()


def test_checkpoint_drops_torn_tail_line(tmp_path):
    session = make_session(seed=2)
    ckpt = Checkpointer(str(tmp_path))
    ckpt.checkpoint(session)
    report = session.apply_delta(inserts=[(1, 2)])
    ckpt.journal({"seq": 1, "inserts": [[1, 2]], "deletes": []},
                 report.chain)
    ckpt.close()
    journal = tmp_path / "journal-000001.jsonl"
    with open(journal, "a", encoding="utf-8") as handle:
        handle.write('{"seq": 2, "inserts": [[3,')  # kill -9 mid-write
    restored = checkpoint_mod.load(str(tmp_path))
    assert restored.replayed == 1 and restored.seq == 1


def test_checkpoint_detects_chain_corruption(tmp_path):
    session = make_session(seed=3)
    ckpt = Checkpointer(str(tmp_path))
    ckpt.checkpoint(session)
    session.apply_delta(inserts=[(1, 2)])
    ckpt.journal({"seq": 1, "inserts": [[1, 2]], "deletes": []},
                 "0" * 64)  # wrong chain value
    ckpt.close()
    with pytest.raises(GraphError):
        checkpoint_mod.load(str(tmp_path))


def test_checkpoint_prunes_old_generations(tmp_path):
    session = make_session(seed=4)
    ckpt = Checkpointer(str(tmp_path))
    for _ in range(4):
        ckpt.checkpoint(session)
    ckpt.close()
    names = sorted(os.listdir(tmp_path))
    assert "state-000004.npz" in names and "state-000001.npz" not in names
    assert checkpoint_mod.load(str(tmp_path)).generation == 4


def test_load_empty_directory_returns_none(tmp_path):
    assert checkpoint_mod.load(str(tmp_path)) is None


# ----------------------------------------------------------------------
# In-process daemon
# ----------------------------------------------------------------------


@pytest.fixture
def daemon(tmp_path):
    server = ReproServer(
        checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_every=3
    )
    server.start()
    host, port = server.address[:2]
    client = ServeClient(host, port)
    yield server, client, tmp_path
    client.close()
    server.stop(final_checkpoint=False)


def test_daemon_round_trip(daemon):
    server, client, _tmp = daemon
    rng = np.random.default_rng(5)
    edges = random_edges(rng, 50, 120)

    ping = client.ping()
    assert ping["ok"] and not ping["loaded"]
    assert client.load_graph(edges=edges, n=50)["m"] == 120
    watched = client.watch("orientation", method="hpartition")
    assert watched["result"]["kind"] == "orientation"

    live = list(range(120))
    for step in range(5):
        dels = [live.pop(int(rng.integers(0, len(live))))]
        ins = [(int(rng.integers(0, 50)), 1 + int(rng.integers(1, 49)))]
        ins = [(u, v) for u, v in ins if u != v] or [(0, 1)]
        report = client.apply_delta(inserts=ins, deletes=dels)["report"]
        assert report["seq"] == step + 1
        live.extend(report["inserted"])

    current = client.current("orientation", include="full")
    q1 = client.query("orientation", include="full", method="hpartition")
    q2 = client.query("orientation", method="hpartition")
    assert not q1["cached"] and q2["cached"]
    assert q1["full"]["coloring"] == current["full"]["coloring"]

    stats = client.stats()
    assert stats["requests"]["apply_delta"]["requests"] == 5
    assert stats["query_cache"]["hits"] == 1
    assert stats["session"]["seq"] == 5
    assert stats["checkpoint"]["generation"] >= 2  # periodic every 3

    generation = client.checkpoint()["generation"]
    assert generation > 0


def test_daemon_error_paths(daemon):
    _server, client, _tmp = daemon
    with pytest.raises(ServeError) as error:
        client.request("no_such_op")
    assert error.value.kind == "GraphError"
    with pytest.raises(ServeError):
        client.apply_delta(inserts=[(0, 1)])  # no graph loaded
    client.load_graph(edges=[(0, 1), (1, 2)], n=3)
    with pytest.raises(ServeError):
        client.current("orientation")  # not watched
    with pytest.raises(ServeError):
        client.apply_delta(deletes=[999])  # unknown edge
    # the daemon survives all of the above
    assert client.ping()["ok"]


def test_daemon_shutdown_reclaims_worker_pools(tmp_path):
    """SIGTERM-path regression: stop() must leave no thread the daemon
    started running, and checkpoint on exit."""
    threads_before = set(threading.enumerate())
    server = ReproServer(
        checkpoint_dir=str(tmp_path),
        # a payload written while "parallel" named the csr backend
        config=DecompositionConfig.from_json({"backend": "parallel"}),
    )
    server.start()
    client = ServeClient(*server.address[:2])
    rng = np.random.default_rng(6)
    client.load_graph(edges=random_edges(rng, 400, 1200), n=400)
    client.watch("orientation", method="hpartition")
    client.apply_delta(inserts=[(0, 7)])
    client.shutdown()
    client.close()
    assert server.wait_for_shutdown(10)
    server.stop()
    deadline = time.monotonic() + 10.0
    leftover = [t for t in threading.enumerate() if t not in threads_before]
    while leftover and time.monotonic() < deadline:
        leftover[0].join(timeout=0.1)
        leftover = [t for t in leftover if t.is_alive()]
    assert leftover == []
    if os.path.isdir("/dev/shm"):
        leaked = [
            name for name in os.listdir("/dev/shm")
            if name.startswith(f"repro-shm-{os.getpid()}-")
        ]
        assert leaked == []
    # checkpoint-on-exit happened
    assert checkpoint_mod.load(str(tmp_path)) is not None


def test_daemon_in_process_resume(tmp_path):
    graph_session = make_session(seed=7)
    server = ReproServer(checkpoint_dir=str(tmp_path))
    server.start()
    client = ServeClient(*server.address[:2])
    edges = [graph_session.graph.endpoints(e)
             for e in graph_session.graph.edge_ids()]
    client.load_graph(edges=edges, n=graph_session.graph.n)
    client.watch("orientation", method="hpartition")
    client.apply_delta(inserts=[(0, 2), (3, 9)])
    client.shutdown()
    client.close()
    assert server.wait_for_shutdown(10)
    server.stop()

    twin = ReproServer(checkpoint_dir=str(tmp_path), resume=True)
    assert twin.resumed
    twin.start()
    client = ServeClient(*twin.address[:2])
    ping = client.ping()
    assert ping["seq"] == 1 and ping["watched"] == ["orientation"]
    reference = graph_session.apply_delta(inserts=[(0, 2), (3, 9)])
    assert (
        client.stats()["session"]["content_digest"]
        == graph_session.content_digest()
    )
    follow = client.apply_delta(inserts=[(4, 5)])["report"]
    reference = graph_session.apply_delta(inserts=[(4, 5)])
    assert follow["chain"] == reference.chain
    client.close()
    twin.stop(final_checkpoint=False)


# ----------------------------------------------------------------------
# Subprocess crash / resume
# ----------------------------------------------------------------------


def _spawn_daemon(tmp_path, resume=False, extra=()):
    cmd = [
        sys.executable, "-m", "repro", "serve", "--port", "0",
        "--checkpoint-dir", str(tmp_path), "--checkpoint-every", "4",
        *extra,
    ]
    if resume:
        cmd.append("--resume")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, text=True,
    )
    line = proc.stdout.readline()
    assert line.startswith(READY_PREFIX), (line, proc.stderr.read())
    fields = dict(kv.split("=") for kv in line.split()[1:])
    return proc, int(fields["port"])


@pytest.mark.slow
def test_kill_9_mid_stream_then_resume_matches_uninterrupted(tmp_path):
    rng = np.random.default_rng(11)
    n = 60
    edges = random_edges(rng, n, 150)
    batches = [
        [(int(rng.integers(0, n)), int(rng.integers(1, n)))]
        for _ in range(10)
    ]
    batches = [[(u, v) for u, v in b if u != v] or [(0, 1)]
               for b in batches]

    proc, port = _spawn_daemon(tmp_path)
    client = ServeClient("127.0.0.1", port)
    client.load_graph(edges=edges, n=n)
    client.watch("orientation", method="hpartition")
    for batch in batches[:6]:
        client.apply_delta(inserts=batch)
    proc.send_signal(signal.SIGKILL)  # no cleanup of any kind
    proc.wait(timeout=30)
    client.close()

    proc2, port2 = _spawn_daemon(tmp_path, resume=True)
    try:
        client = ServeClient("127.0.0.1", port2)
        ping = client.ping()
        assert ping["resumed"] and ping["seq"] == 6
        for batch in batches[6:]:
            last = client.apply_delta(inserts=batch)["report"]
        resumed = client.current("orientation", include="full")["full"]
        digest = client.stats()["session"]["content_digest"]
        client.shutdown()
        client.close()
        proc2.wait(timeout=30)
    finally:
        if proc2.poll() is None:
            proc2.kill()

    # uninterrupted reference run, same ops in one process
    graph = repro.MultiGraph.from_edges(n, edges)
    session = repro.Session(graph)
    session.watch("orientation", method="hpartition")
    for batch in batches:
        reference = session.apply_delta(inserts=batch)
    assert last["chain"] == reference.chain
    assert digest == session.content_digest()
    expected = session.current("orientation").to_json()
    assert resumed["coloring"] == expected["coloring"]
    assert resumed["bound"] == expected["bound"]


@pytest.mark.slow
def test_sigterm_checkpoints_and_exits_cleanly(tmp_path):
    rng = np.random.default_rng(12)
    proc, port = _spawn_daemon(tmp_path)
    client = ServeClient("127.0.0.1", port)
    client.load_graph(edges=random_edges(rng, 30, 60), n=30)
    client.watch("pseudoforest", method="hpartition")
    client.apply_delta(inserts=[(0, 5)])
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 0
    client.close()
    restored = checkpoint_mod.load(str(tmp_path))
    assert restored is not None and restored.seq == 1
    twin = restore_session(restored)
    assert twin.watched() == ("pseudoforest",)
    graph = repro.MultiGraph.from_edges(
        30, random_edges(np.random.default_rng(12), 30, 60)
    )
    graph.add_edge(0, 5)
    assert (
        twin.content_digest() == repro.Session(graph).content_digest()
    )


def test_cli_client_one_shot(tmp_path):
    """``repro client`` sends one op and prints the JSON reply."""
    proc, port = _spawn_daemon(tmp_path)
    try:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        out = subprocess.run(
            [sys.executable, "-m", "repro", "client", "ping",
             "--port", str(port)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout)
        assert payload["ok"] and payload["op"] == "ping"
        subprocess.run(
            [sys.executable, "-m", "repro", "client", "shutdown",
             "--port", str(port)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()


def test_serve_help_listed():
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["serve", "--help"])
