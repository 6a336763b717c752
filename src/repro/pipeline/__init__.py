"""Pass pipelines: declared stage lists + a stage scheduler.

The paper's algorithms are fixed sequences of frontier-synchronous
stages.  This package turns each registered task's run into a declared
:class:`Pipeline` — its :class:`Pass` stages in execution order —
executed by a :class:`Scheduler` in that order, with color classes as
the natural fan-out unit.  Every pass is
instrumented as a :class:`PassStats` record surfaced through
``result.stats["passes"]``, ``Session.cache_info()`` and
``repro decompose --profile``.
"""

from .passes import Pass, PassStats, PipelineContext
from .pipeline import Pipeline, RetryRule
from .scheduler import Scheduler

__all__ = [
    "Pass",
    "PassStats",
    "PipelineContext",
    "Pipeline",
    "RetryRule",
    "Scheduler",
]
