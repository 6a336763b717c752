"""Stage runner: one :class:`PassStats` record per executed task stage.

Each task is a fixed chain of the paper's steps, written as plain
Python in its module: stage functions take their inputs as arguments
and return their outputs.  :meth:`Scheduler.stage` runs one of them and
records wall time, charged LOCAL rounds and the counts the stage notes
on its record; the records, in execution order (retries included), are
what ``result.stats["passes"]``, ``Session.cache_info()["passes"]`` and
``repro decompose --profile`` report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from ..local.rounds import RoundCounter


@dataclass
class PassStats:
    """Per-stage instrumentation record (stable, documented schema).

    Fields (all in :meth:`to_json`):

    * ``name`` — the stage name;
    * ``wall_ms`` — wall-clock milliseconds spent in the stage;
    * ``rounds`` — LOCAL rounds charged to the shared counter during
      the stage;
    * ``engine_waves`` — always 0 (no stage runs on a thread pool);
      kept for the schema;
    * ``items`` — independent work units the stage mapped (color
      classes rooted, per-vertex matchings solved);
    * ``reconcile_volume`` — elements reconciled into shared state
      (edges colored/deleted, vertices claimed);
    * ``vertices_touched`` — vertices the stage scanned.
    """

    name: str
    wall_ms: float = 0.0
    rounds: int = 0
    engine_waves: int = 0
    items: int = 0
    reconcile_volume: int = 0
    vertices_touched: int = 0

    def to_json(self) -> Dict[str, Any]:
        """Explicit JSON schema — one key per documented field."""
        return {
            "name": self.name,
            "wall_ms": self.wall_ms,
            "rounds": self.rounds,
            "engine_waves": self.engine_waves,
            "items": self.items,
            "reconcile_volume": self.reconcile_volume,
            "vertices_touched": self.vertices_touched,
        }


class Scheduler:
    """Runs one task's stages and keeps their records in ``passes``."""

    def __init__(self, counter: RoundCounter) -> None:
        self.counter = counter
        self.passes: List[PassStats] = []

    def stage(self, name: str, fn: Callable[..., Any], *args: Any,
              **kwargs: Any) -> Any:
        """Run ``fn(record, *args, **kwargs)`` as stage ``name`` and
        return its value; the stage notes its counts on ``record``."""
        return self._execute_pass(PassStats(name=name), fn, *args, **kwargs)

    def _execute_pass(self, record: PassStats, fn: Callable[..., Any],
                      *args: Any, **kwargs: Any) -> Any:
        # One call per stage: the perfbench tracer wraps this attribute
        # to time every stage as a ``pipeline.pass`` span.
        counter = self.counter
        rounds_before = counter.total
        # repro: allow(det-wallclock) — observability only: wall_ms feeds
        # PassStats reporting, never any ordering or algorithmic choice.
        started = time.perf_counter()
        try:
            return fn(record, *args, **kwargs)
        finally:
            # repro: allow(det-wallclock) — observability only: timing lands
            # in PassStats.wall_ms and is never read back by the scheduler.
            record.wall_ms += (time.perf_counter() - started) * 1000.0
            record.rounds += counter.total - rounds_before
            # Kept even when the stage raises, so a retried task shows
            # its true execution history.
            self.passes.append(record)
