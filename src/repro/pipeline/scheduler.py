"""Stage scheduler: executes a validated Pipeline over a context.

Two schedules, one contract:

* ``"serial"`` — every pass runs inline in the pipeline's canonical
  topological order.  This is the bit-identical reference.
* ``"concurrent"`` — pass fan-outs (``ctx.fan_out``) use the batched
  vectorized kernel when the pass provides one, which must reproduce
  the per-item results exactly; fan-outs without one, and multi-pass
  levels, run in declaration order as under ``"serial"``.

``schedule="auto"`` picks concurrent for graphs of at least
:data:`CONCURRENT_MIN_VERTICES` vertices, serial below.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Sequence

from ..errors import RegistryError
from .passes import Pass, PassStats, PipelineContext
from .pipeline import Pipeline

SCHEDULES = ("auto", "serial", "concurrent")

#: ``schedule="auto"`` resolves to ``"concurrent"`` from this vertex
#: count on: below it a batched kernel's setup outweighs the per-item
#: loop it replaces.
CONCURRENT_MIN_VERTICES = 50_000


def resolve_schedule(graph_or_n: Any, schedule: str = "auto") -> str:
    """Resolve an ``"auto"`` schedule against the graph size:
    concurrent at n >= :data:`CONCURRENT_MIN_VERTICES`, serial below."""
    if schedule not in SCHEDULES:
        raise RegistryError(
            f"unknown schedule {schedule!r}; expected one of {SCHEDULES}"
        )
    if schedule != "auto":
        return schedule
    n = getattr(graph_or_n, "n", graph_or_n)
    if n is None:
        return "serial"
    return "concurrent" if int(n) >= CONCURRENT_MIN_VERTICES else "serial"


class Scheduler:
    """Runs a :class:`Pipeline`'s passes under a resolved schedule."""

    def __init__(self, schedule: str = "serial") -> None:
        if schedule not in ("serial", "concurrent"):
            raise RegistryError(
                f"scheduler requires a resolved schedule, got {schedule!r} "
                "(resolve 'auto' via resolve_schedule first)"
            )
        self.schedule = schedule

    @property
    def concurrent(self) -> bool:
        return self.schedule == "concurrent"

    # -- fan-out ---------------------------------------------------------

    def map_items(
        self,
        thunks: Sequence[Callable[[], Any]],
        batched: Optional[Callable[[], List[Any]]] = None,
    ) -> List[Any]:
        """Run independent thunks, preserving item order: the batched
        kernel (one vectorized call replacing the whole loop) under the
        concurrent schedule when one is given and there is more than one
        item, else the plain in-order loop."""
        thunks = list(thunks)
        if self.concurrent and batched is not None and len(thunks) > 1:
            return batched()
        return [thunk() for thunk in thunks]

    # -- pass execution --------------------------------------------------

    def run(self, pipeline: Pipeline, ctx: PipelineContext) -> Any:
        """Execute the pipeline over ``ctx``; returns
        ``ctx[pipeline.result_key]`` (or ``None`` if unset).

        Retry semantics: when a :class:`RetryRule` exception escapes a
        pass, execution restarts from the level containing
        ``retry.from_pass``; the final attempt re-raises.  PassStats
        of re-executed passes are appended again, so
        ``result.stats["passes"]`` shows the true execution history.
        """
        ctx.scheduler = self
        retry = pipeline.retry
        restart_level = pipeline.retry_level()
        attempt = 1
        level_idx = 0
        levels = pipeline.levels
        while level_idx < len(levels):
            try:
                for p in levels[level_idx]:
                    self._run_pass(p, ctx)
            except Exception as exc:
                if (
                    retry is not None
                    and isinstance(exc, retry.exceptions)
                    and attempt < retry.max_attempts
                ):
                    attempt += 1
                    if retry.on_retry is not None:
                        retry.on_retry(ctx)
                    level_idx = restart_level
                    continue
                raise
            level_idx += 1
        return ctx.get(pipeline.result_key)

    def _run_pass(self, p: Pass, ctx: PipelineContext) -> None:
        record = PassStats(name=p.name, schedule=self.schedule)
        try:
            self._execute_pass(p, ctx, record)
        finally:
            ctx.pass_stats.append(record)

    def _execute_pass(
        self, p: Pass, ctx: PipelineContext, record: PassStats
    ) -> None:
        counter = ctx.counter
        rounds_before = counter.total if counter is not None else 0
        # repro: allow(det-wallclock) — observability only: wall_ms feeds
        # PassStats reporting, never any ordering or algorithmic choice.
        started = time.perf_counter()
        ctx._begin(record)
        try:
            p.runner(ctx)
        finally:
            ctx._end()
            # repro: allow(det-wallclock) — observability only: timing lands
            # in PassStats.wall_ms and is never read back by the scheduler.
            record.wall_ms += (time.perf_counter() - started) * 1000.0
            if counter is not None:
                record.rounds += counter.total - rounds_before
