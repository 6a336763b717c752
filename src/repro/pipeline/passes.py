"""Pass declarations and the shared execution context.

A *pass* is one named stage of a task pipeline — "color splitting",
"algorithm2", "diameter reduction", ... — declared as data: its
dependencies, the context keys it reads and writes, and a runner over a
shared :class:`PipelineContext`.  The declarations are what
:class:`~repro.pipeline.pipeline.Pipeline` validates into a DAG and the
:class:`~repro.pipeline.scheduler.Scheduler` executes (serially in
topological order — the bit-identical reference — or concurrently,
with fan-outs routed through batched kernels).

Every executed pass produces one :class:`PassStats` record — wall time,
charged LOCAL rounds, engine waves, fan-out width, reconcile volume and
vertices touched — collected on the context and surfaced as
``result.stats["passes"]``, ``Session.cache_info()`` and
``repro decompose --profile``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class PassStats:
    """Per-pass instrumentation record (stable, documented schema).

    Fields (all in :meth:`to_json`):

    * ``name`` — the declared pass name;
    * ``schedule`` — the schedule the pass executed under
      (``"serial"`` or ``"concurrent"``);
    * ``wall_ms`` — wall-clock milliseconds spent in the runner;
    * ``rounds`` — LOCAL rounds charged to the shared counter during
      the pass;
    * ``engine_waves`` — waves the runner reports via ``ctx.note``
      (no built-in pass does, so it reads 0; kept for the schema);
    * ``items`` — fan-out width (e.g. color classes mapped through
      ``ctx.fan_out``);
    * ``reconcile_volume`` — elements reconciled into shared state
      (edges colored/deleted, vertices claimed), as noted by the
      runner;
    * ``vertices_touched`` — vertices the pass scanned, as noted by
      the runner.
    """

    name: str
    schedule: str = "serial"
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
            "schedule": self.schedule,
            "wall_ms": self.wall_ms,
            "rounds": self.rounds,
            "engine_waves": self.engine_waves,
            "items": self.items,
            "reconcile_volume": self.reconcile_volume,
            "vertices_touched": self.vertices_touched,
        }


#: runner(ctx) -> None; results travel through the context's declared
#: ``writes`` keys, never through return values.
PassRunner = Callable[["PipelineContext"], None]


@dataclass(frozen=True)
class Pass:
    """One declared pipeline stage.

    ``deps`` are pass names that must complete first; ``reads`` /
    ``writes`` document the context keys the runner touches (checked
    by ``make check``).  ``citation``
    names the theorem/corollary the stage implements, for
    :func:`repro.describe`.
    """

    name: str
    runner: PassRunner
    deps: Tuple[str, ...] = ()
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    description: str = ""
    citation: str = ""


class PipelineContext:
    """Shared state a pipeline's passes communicate through.

    A dict of values (``ctx["coloring"]``), plus the ambient run
    handles every stage needs: the owning :class:`~repro.core.session.
    Session` (may be ``None`` for standalone function entry points),
    the :class:`~repro.core.config.DecompositionConfig`, the shared
    :class:`~repro.local.rounds.RoundCounter`, and the executing
    scheduler (set by :meth:`Scheduler.run
    <repro.pipeline.scheduler.Scheduler.run>`).

    Runners report instrumentation via :meth:`note` and fan indexed
    work (color classes, vertex chunks) through :meth:`fan_out`; both
    are attributed to the currently executing pass.
    """

    def __init__(
        self,
        session: Any = None,
        config: Any = None,
        counter: Any = None,
        values: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.session = session
        self.config = config
        self.counter = counter
        self.values: Dict[str, Any] = dict(values or {})
        self.pass_stats: List[PassStats] = []
        self.scheduler: Any = None
        # Current-pass stack that note()/fan_out() attribute to.
        self._stack: List[PassStats] = []

    # -- value access ---------------------------------------------------

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def __setitem__(self, key: str, value: Any) -> None:
        self.values[key] = value

    def __contains__(self, key: str) -> bool:
        return key in self.values

    def get(self, key: str, default: Any = None) -> Any:
        return self.values.get(key, default)

    def update(self, mapping: Dict[str, Any]) -> None:
        self.values.update(mapping)

    # -- schedule plumbing ----------------------------------------------

    @property
    def schedule(self) -> str:
        """The resolved schedule of the executing scheduler
        (``"serial"`` when running outside one)."""
        if self.scheduler is None:
            return "serial"
        return self.scheduler.schedule

    def fan_out(self, thunks, batched=None) -> list:
        """Run independent thunks as this pass's fan-out unit.

        Serial schedule: a plain in-order loop (the reference).
        Concurrent schedule: the batched kernel when one is provided
        (it must return the same per-item result list), else the same
        in-order loop.  Item order — and therefore any in-order
        reconcile the caller performs — is preserved on every path.
        """
        thunks = list(thunks)
        self.note(items=len(thunks))
        if self.scheduler is None:
            return [thunk() for thunk in thunks]
        return self.scheduler.map_items(thunks, batched=batched)

    # -- instrumentation ------------------------------------------------

    def note(self, **fields: int) -> None:
        """Accumulate instrumentation onto the executing pass's
        :class:`PassStats` (``items=``, ``reconcile_volume=``,
        ``vertices_touched=``, ``engine_waves=``).  A no-op outside a
        pass, so stage helpers can note unconditionally."""
        stats = self._current()
        if stats is None:
            return
        for key, value in fields.items():
            setattr(stats, key, getattr(stats, key) + int(value))

    def _current(self) -> Optional[PassStats]:
        return self._stack[-1] if self._stack else None

    def _begin(self, stats: PassStats) -> None:
        self._stack.append(stats)

    def _end(self) -> None:
        if self._stack:
            self._stack.pop()
