"""Stage scheduler: executes a validated Pipeline over a context.

Every pass runs inline in the pipeline's declared order; fan-outs
(``ctx.fan_out``) are plain in-order loops.  The LOCAL rounds a pass
charges do not depend on the order a host runs it in, so there is one
execution path and it is the bit-identical reference.
"""

from __future__ import annotations

import time
from typing import Any

from .passes import Pass, PassStats, PipelineContext
from .pipeline import Pipeline


class Scheduler:
    """Runs a :class:`Pipeline`'s passes in list order."""

    def run(self, pipeline: Pipeline, ctx: PipelineContext) -> Any:
        """Execute the pipeline over ``ctx``; returns
        ``ctx[pipeline.result_key]`` (or ``None`` if unset).

        Retry semantics: when a :class:`RetryRule` exception escapes a
        pass, execution restarts at ``retry.from_pass``; the final
        attempt re-raises.  PassStats of re-executed passes are
        appended again, so ``result.stats["passes"]`` shows the true
        execution history.
        """
        retry = pipeline.retry
        passes = pipeline.passes
        attempt = 1
        index = 0
        while index < len(passes):
            try:
                self._run_pass(passes[index], ctx)
            except Exception as exc:
                if (
                    retry is not None
                    and isinstance(exc, retry.exceptions)
                    and attempt < retry.max_attempts
                ):
                    attempt += 1
                    if retry.on_retry is not None:
                        retry.on_retry(ctx)
                    index = pipeline.pass_names().index(retry.from_pass)
                    continue
                raise
            index += 1
        return ctx.get(pipeline.result_key)

    def _run_pass(self, p: Pass, ctx: PipelineContext) -> None:
        record = PassStats(name=p.name)
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
