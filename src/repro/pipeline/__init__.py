"""Stage records for the task runs.

Every registered task runs the paper's steps in a fixed order as plain
stage functions; :class:`Scheduler` runs each one and keeps a
:class:`PassStats` record of it, surfaced through
``result.stats["passes"]``, ``Session.cache_info()`` and
``repro decompose --profile``.
"""

from .scheduler import PassStats, Scheduler

__all__ = [
    "PassStats",
    "Scheduler",
]
