"""``repro serve`` — the long-lived incremental decomposition daemon.

One process holds one shared :class:`~repro.core.session.Session`
behind a line-delimited-JSON TCP socket.  Clients load a graph, watch
tasks, stream delta batches, and query decompositions; the delta
engine (:mod:`repro.service.delta`) keeps every watched result
bit-identical to a from-scratch recompute while paying only for the
dirty cascade.

Protocol: one JSON object per line in, one JSON object per line out,
in order.  Requests carry ``{"op": ..., ...}`` plus an optional
``"id"`` echoed back; responses carry ``{"ok": true, ...}`` or
``{"ok": false, "error": ..., "error_kind": ...}``.  Ops:

``ping`` · ``load_graph`` · ``watch`` · ``unwatch`` · ``apply_delta``
· ``query`` · ``current`` · ``stats`` · ``checkpoint`` · ``shutdown``

Concurrency: the listener is a threading TCP server (one thread per
connection), but every op that touches the session runs under one
lock — the session is the unit of consistency, and serializing its
ops is what makes the delta journal a total order.  Repeated
``query`` ops against an unchanged graph are deduplicated by a
fingerprint-keyed cache, so N concurrent identical queries compute
once (the rest are cache hits that only briefly hold the lock).

Durability: every applied delta batch is appended (flushed + fsynced)
to the checkpoint journal *before* its acknowledgment is sent, and
every ``checkpoint_every`` batches the daemon writes a full snapshot
generation (:mod:`repro.service.checkpoint`).  ``kill -9`` at any
instant loses at most the unacknowledged in-flight batch;
``repro serve --resume`` replays the journal and reconstructs the
exact pre-crash state.  SIGTERM/SIGINT trigger a graceful exit:
final checkpoint, then socket teardown.

Per-request structured logs (JSON lines: op, wall time, outcome) and
PassStats-style per-op totals (``stats`` op) make the daemon
observable without parsing human text.
"""

from __future__ import annotations

import json
import os
import signal
import socketserver
import sys
import threading
import time
import traceback
from collections import OrderedDict
from typing import Any, Dict, Optional, TextIO

from .. import __version__
from ..core.config import DecompositionConfig
from ..core.session import Session
from ..errors import GraphError, ReproError
from ..graph.multigraph import MultiGraph
from . import checkpoint as checkpoint_mod
from .checkpoint import Checkpointer, restore_session

__all__ = ["ReproServer", "serve", "READY_PREFIX"]

#: the daemon's stdout handshake; scripts wait for this line.
READY_PREFIX = "REPRO_SERVE_READY"

#: LRU bound on the query dedup cache (per (fingerprint, task, knobs)).
QUERY_CACHE_SIZE = 32


def _summarize(session: Session, result) -> Dict[str, Any]:
    """Small JSON summary of a decomposition result (the full
    ``to_json`` payload is returned only on request — colorings are
    O(m))."""
    payload: Dict[str, Any] = {
        "kind": result.kind,
        "colors": result.num_colors(),
        "n": session.graph.n,
        "m": session.graph.m,
    }
    for attr in ("bound", "k", "threshold", "colors_used", "color_budget"):
        value = getattr(result, attr, None)
        if isinstance(value, int):
            payload[attr] = value
    rounds = getattr(result, "rounds", None)
    if rounds is not None:
        payload["rounds"] = rounds.total
    return payload


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read JSON lines, dispatch, write JSON lines."""

    def handle(self) -> None:
        server: "ReproServer" = self.server.repro  # type: ignore[attr-defined]
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as error:
                response = {
                    "ok": False,
                    "error": f"bad request line: {error}",
                    "error_kind": "ProtocolError",
                }
            else:
                response = server.handle(request)
            self.wfile.write(
                (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")
            )
            self.wfile.flush()
            if response.get("op") == "shutdown" and response.get("ok"):
                break


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ReproServer:
    """The daemon's engine room, usable in-process (tests) or behind
    :func:`serve` (the CLI)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[DecompositionConfig] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 16,
        log_stream: Optional[TextIO] = None,
        resume: bool = False,
    ) -> None:
        self.config = config if config is not None else DecompositionConfig()
        self.checkpoint_every = max(0, int(checkpoint_every))
        self._lock = threading.RLock()
        self._log_stream = log_stream
        self._log_lock = threading.Lock()
        self._started = time.time()
        self._shutdown_event = threading.Event()
        self._request_stats: Dict[str, Dict[str, float]] = {}
        self._query_cache: "OrderedDict[tuple, Any]" = OrderedDict()
        self._query_hits = 0
        self._query_misses = 0
        self.session: Optional[Session] = None
        self.checkpointer: Optional[Checkpointer] = None
        self.resumed = False

        if checkpoint_dir:
            if resume:
                restored = checkpoint_mod.load(checkpoint_dir)
                if restored is not None:
                    self.session = restore_session(restored)
                    self.config = restored.config
                    self.resumed = True
                    self.log(
                        "resume",
                        generation=restored.generation,
                        replayed=restored.replayed,
                        seq=restored.seq,
                        n=restored.graph.n,
                        m=restored.graph.m,
                    )
            self.checkpointer = Checkpointer(checkpoint_dir)
            if self.resumed and self.session is not None:
                # Compact immediately: the replayed journal folds into
                # a fresh generation, so a second crash replays nothing.
                self.checkpointer.checkpoint(self.session)
        elif resume:
            raise GraphError("--resume requires a checkpoint directory")

        self._tcp = _TCPServer((host, port), _Handler)
        self._tcp.repro = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> tuple:
        """``(host, port)`` the daemon is bound to."""
        return self._tcp.server_address

    def start(self) -> None:
        """Serve connections on a background thread (returns at once)."""
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            name="repro-serve-accept",
            daemon=True,
        )
        self._thread.start()

    def wait_for_shutdown(self, timeout: Optional[float] = None) -> bool:
        """Block until a ``shutdown`` op or :meth:`trigger_shutdown`."""
        return self._shutdown_event.wait(timeout)

    def trigger_shutdown(self) -> None:
        self._shutdown_event.set()

    def stop(self, final_checkpoint: bool = True) -> None:
        """Graceful teardown: final checkpoint, then close the socket
        and join the serving thread."""
        with self._lock:
            if (
                final_checkpoint
                and self.checkpointer is not None
                and self.session is not None
            ):
                generation = self.checkpointer.checkpoint(self.session)
                self.log("checkpoint", generation=generation, reason="exit")
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self.checkpointer is not None:
            self.checkpointer.close()
        self.log("shutdown", uptime_s=round(time.time() - self._started, 3))

    # -- logging / stats ----------------------------------------------

    def log(self, event: str, **fields: Any) -> None:
        """One structured JSON log line (no-op without a log stream)."""
        if self._log_stream is None:
            return
        record = {"ts": round(time.time(), 6), "event": event}
        record.update(fields)
        with self._log_lock:
            self._log_stream.write(json.dumps(record, sort_keys=True) + "\n")
            self._log_stream.flush()

    def _account(self, op: str, wall_ms: float, ok: bool) -> None:
        stats = self._request_stats.setdefault(
            op, {"requests": 0, "errors": 0, "wall_ms": 0.0}
        )
        stats["requests"] += 1
        stats["wall_ms"] += wall_ms
        if not ok:
            stats["errors"] += 1

    # -- dispatch ------------------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one request dict to its op handler; never raises."""
        op = str(request.get("op", ""))
        start = time.perf_counter()
        handler = getattr(self, f"_op_{op}", None)
        try:
            if handler is None:
                raise GraphError(f"unknown op {op!r}")
            response = handler(request)
            response.setdefault("ok", True)
        except ReproError as error:
            response = {
                "ok": False,
                "error": str(error),
                "error_kind": type(error).__name__,
            }
        except Exception as error:  # noqa: BLE001 — daemon must not die
            response = {
                "ok": False,
                "error": f"{type(error).__name__}: {error}",
                "error_kind": "InternalError",
            }
            self.log("internal_error", op=op, trace=traceback.format_exc())
        wall_ms = (time.perf_counter() - start) * 1000.0
        response["op"] = op
        if "id" in request:
            response["id"] = request["id"]
        self._account(op, wall_ms, bool(response.get("ok")))
        self.log(
            "request",
            op=op,
            ok=bool(response.get("ok")),
            wall_ms=round(wall_ms, 3),
            **({"id": request["id"]} if "id" in request else {}),
        )
        return response

    def _require_session(self) -> Session:
        if self.session is None:
            raise GraphError("no graph loaded; send a load_graph op first")
        return self.session

    @staticmethod
    def _parse_config(payload) -> Optional[DecompositionConfig]:
        if payload is None:
            return None
        if not isinstance(payload, dict):
            raise GraphError("config must be a JSON object")
        return DecompositionConfig.from_json(payload)

    # -- ops -----------------------------------------------------------

    def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            session = self.session
            payload = {
                "pid": os.getpid(),
                "version": __version__,
                "uptime_s": round(time.time() - self._started, 3),
                "loaded": session is not None,
                "resumed": self.resumed,
            }
            if session is not None:
                state = session._delta_state
                payload.update(
                    n=session.graph.n,
                    m=session.graph.m,
                    seq=state.seq if state is not None else 0,
                    watched=list(session.watched()),
                )
        return payload

    def _op_load_graph(self, request: Dict[str, Any]) -> Dict[str, Any]:
        config = self._parse_config(request.get("config"))
        if "path" in request:
            from ..graph.io import read_edge_list

            graph = read_edge_list(str(request["path"]))
        elif "edges" in request:
            n = int(request.get("n", 0))
            pairs = [(int(u), int(v)) for u, v in request["edges"]]
            if n <= 0:
                n = 1 + max(
                    (max(u, v) for u, v in pairs), default=-1
                )
            graph = MultiGraph.from_edges(n, pairs)
        else:
            raise GraphError("load_graph needs 'edges' or 'path'")
        with self._lock:
            if config is not None:
                self.config = config
            self.session = Session(graph, self.config)
            self._query_cache.clear()
            if self.checkpointer is not None:
                generation = self.checkpointer.checkpoint(self.session)
                self.log("checkpoint", generation=generation, reason="load")
        return {"n": graph.n, "m": graph.m}

    def _op_watch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        task = str(request.get("task", "forest"))
        config = self._parse_config(request.get("config"))
        kwargs = request.get("kwargs") or {}
        if not isinstance(kwargs, dict):
            raise GraphError("kwargs must be a JSON object")
        with self._lock:
            session = self._require_session()
            result = session.watch(task, config=config, **kwargs)
            summary = _summarize(session, result)
            if self.checkpointer is not None:
                # Watches are part of the resumable state; persist the
                # new watch list right away.
                generation = self.checkpointer.checkpoint(self.session)
                self.log("checkpoint", generation=generation, reason="watch")
        return {"task": task, "result": summary}

    def _op_unwatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        task = request.get("task")
        with self._lock:
            session = self._require_session()
            session.unwatch(None if task is None else str(task))
            return {"watched": list(session.watched())}

    def _op_apply_delta(self, request: Dict[str, Any]) -> Dict[str, Any]:
        inserts = [
            (int(u), int(v)) for u, v in request.get("inserts", ())
        ]
        deletes = [int(e) for e in request.get("deletes", ())]
        with self._lock:
            session = self._require_session()
            report = session.apply_delta(inserts, deletes)
            if self.checkpointer is not None:
                # Journal (fsynced) before the ack leaves this method:
                # an acknowledged batch always survives kill -9.
                self.checkpointer.journal(
                    {
                        "seq": report.seq,
                        "inserts": [[u, v] for u, v in inserts],
                        "deletes": deletes,
                    },
                    report.chain,
                )
                if (
                    self.checkpoint_every
                    and self.checkpointer.journaled >= self.checkpoint_every
                ):
                    generation = self.checkpointer.checkpoint(session)
                    self.log(
                        "checkpoint", generation=generation, reason="periodic"
                    )
        return {"report": report.to_json()}

    def _query_key(self, session, task, config, kwargs) -> tuple:
        knobs = json.dumps(
            {
                "config": config.to_json() if config is not None else None,
                "kwargs": kwargs,
            },
            sort_keys=True,
        )
        return (session.fingerprint(), task, knobs)

    def _op_query(self, request: Dict[str, Any]) -> Dict[str, Any]:
        task = str(request.get("task", "forest"))
        config = self._parse_config(request.get("config"))
        kwargs = request.get("kwargs") or {}
        if not isinstance(kwargs, dict):
            raise GraphError("kwargs must be a JSON object")
        include = str(request.get("include", "summary"))
        with self._lock:
            session = self._require_session()
            key = self._query_key(session, task, config, kwargs)
            cached = True
            if key in self._query_cache:
                self._query_cache.move_to_end(key)
                result = self._query_cache[key]
                self._query_hits += 1
            else:
                result = session.decompose(task, config=config, **kwargs)
                self._query_cache[key] = result
                while len(self._query_cache) > QUERY_CACHE_SIZE:
                    self._query_cache.popitem(last=False)
                self._query_misses += 1
                cached = False
            payload: Dict[str, Any] = {
                "task": task,
                "cached": cached,
                "result": _summarize(session, result),
            }
            if include == "full":
                payload["full"] = result.to_json()
        return payload

    def _op_current(self, request: Dict[str, Any]) -> Dict[str, Any]:
        task = str(request.get("task", "forest"))
        include = str(request.get("include", "summary"))
        with self._lock:
            session = self._require_session()
            result = session.current(task)
            state = session._delta_state
            payload = {
                "task": task,
                "seq": state.seq if state is not None else 0,
                "result": _summarize(session, result),
            }
            if include == "full":
                payload["full"] = result.to_json()
        return payload

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            session = self.session
            requests = {
                op: {
                    "requests": int(s["requests"]),
                    "errors": int(s["errors"]),
                    "wall_ms": round(s["wall_ms"], 3),
                }
                for op, s in sorted(self._request_stats.items())
            }
            payload: Dict[str, Any] = {
                "uptime_s": round(time.time() - self._started, 3),
                "requests": requests,
                "query_cache": {
                    "size": len(self._query_cache),
                    "hits": self._query_hits,
                    "misses": self._query_misses,
                },
            }
            if session is not None:
                state = session._delta_state
                payload["session"] = {
                    "n": session.graph.n,
                    "m": session.graph.m,
                    "watched": list(session.watched()),
                    "seq": state.seq if state is not None else 0,
                    "delta": (
                        state.oracle.stats() if state is not None else {}
                    ),
                    "content_digest": session.content_digest(),
                }
            if self.checkpointer is not None:
                payload["checkpoint"] = {
                    "directory": self.checkpointer.directory,
                    "generation": self.checkpointer.generation,
                    "journaled": self.checkpointer.journaled,
                }
        return payload

    def _op_checkpoint(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            session = self._require_session()
            if self.checkpointer is None:
                raise GraphError(
                    "daemon was started without a checkpoint directory"
                )
            generation = self.checkpointer.checkpoint(session)
        self.log("checkpoint", generation=generation, reason="request")
        return {"generation": generation}

    def _op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        # Ack first (the handler writes the response, then the accept
        # loop is stopped by whoever waits on the event).
        self.trigger_shutdown()
        return {"stopping": True}


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[DecompositionConfig] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 16,
    resume: bool = False,
    graph_path: Optional[str] = None,
    log_stream: Optional[TextIO] = None,
    ready_stream: Optional[TextIO] = None,
    install_signal_handlers: bool = True,
) -> int:
    """Run the daemon until a shutdown op or SIGTERM/SIGINT.

    Prints the ``REPRO_SERVE_READY port=<p> pid=<p>`` handshake once
    the socket is bound.  On signal: final checkpoint, socket close —
    then returns 0.
    """
    server = ReproServer(
        host=host,
        port=port,
        config=config,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        log_stream=log_stream,
        resume=resume,
    )
    if graph_path and server.session is None:
        server.handle({"op": "load_graph", "path": graph_path})

    stop_reason = {"value": "shutdown-op"}
    if install_signal_handlers:

        def _on_signal(signum, _frame):
            stop_reason["value"] = signal.Signals(signum).name
            server.trigger_shutdown()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)

    server.start()
    out = ready_stream if ready_stream is not None else sys.stdout
    host_bound, port_bound = server.address[:2]
    out.write(
        f"{READY_PREFIX} host={host_bound} port={port_bound} "
        f"pid={os.getpid()}\n"
    )
    out.flush()
    server.log("ready", host=host_bound, port=port_bound, pid=os.getpid())

    server.wait_for_shutdown()
    server.log("stopping", reason=stop_reason["value"])
    server.stop(final_checkpoint=True)
    return 0
