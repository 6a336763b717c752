"""Pass-pipeline compiler: declared stage DAGs + a stage scheduler.

The paper's algorithms are fixed sequences of frontier-synchronous
stages.  This package turns each registered task's run into a declared
:class:`Pipeline` of :class:`Pass` stages, validated as a DAG and
executed by a :class:`Scheduler` — serially in topological order (the
bit-identical reference) or concurrently, with color classes as the
natural fan-out unit of the batched kernels.  Every pass is
instrumented as a :class:`PassStats` record surfaced through
``result.stats["passes"]``, ``Session.cache_info()`` and
``repro decompose --profile``.
"""

from .passes import Pass, PassStats, PipelineContext
from .pipeline import Pipeline, RetryRule
from .scheduler import SCHEDULES, Scheduler, resolve_schedule

__all__ = [
    "Pass",
    "PassStats",
    "PipelineContext",
    "Pipeline",
    "RetryRule",
    "SCHEDULES",
    "Scheduler",
    "resolve_schedule",
]
