"""Task registry: the one seam where decompositions plug into the
public API.

Every headline result of the paper is a *task* — a named recipe that
takes a :class:`~repro.core.session.Session` plus a
:class:`~repro.core.config.DecompositionConfig` and returns a
:class:`~repro.core.results.DecompositionResult`.  The six built-in
tasks (registered by :mod:`repro.core.session` on import) are::

    forest            Theorem 4.6   (1+ε)α forest decomposition
    star_forest       Theorem 5.4(1)
    list_forest       Theorem 4.10
    list_star_forest  Theorem 5.4(2) / Theorem 2.3 fallback
    pseudoforest      Corollary 1.1 companion
    orientation       Corollary 1.1

Use :func:`register_task` to add a task (``override=True`` to replace
an entry); unknown names raise :class:`~repro.errors.RegistryError`
listing what is available.  Graph substrates are not registered:
every task runs on the flat-array CSR kernel.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import RegistryError

#: runner(session, config, rounds=..., **task_kwargs) -> DecompositionResult
TaskRunner = Callable[..., Any]


@dataclass(frozen=True)
class TaskSpec:
    """One decomposition task: name, runner, and declared behavior."""

    name: str
    runner: TaskRunner
    description: str = ""
    #: which theorem/corollary of the paper the task reproduces
    citation: str = ""
    #: default excess-color budget when config.epsilon is None
    default_epsilon: float = 0.5
    #: task only accepts simple graphs (Section 5 star-forest tasks)
    simple_only: bool = False
    #: task consumes per-edge palettes (list variants)
    needs_palettes: bool = False
    #: what the session precomputes for the task ("arboricity",
    #: "pseudoarboricity") — also documentation of what Session caching
    #: saves on repeated queries
    uses: Tuple[str, ...] = ()
    #: optional incremental refresher consumed by the delta engine
    #: (:meth:`repro.core.session.Session.apply_delta`):
    #: ``delta(session, watch, info) -> DecompositionResult | None``,
    #: where ``None`` means "cannot repair this delta incrementally —
    #: fall back to a full recompute".  A refresher MUST return a
    #: result bit-identical to a from-scratch run of the task on the
    #: mutated graph; the delta-equivalence corpus enforces it for the
    #: built-ins.  Attached lazily via :func:`set_task_delta` so the
    #: service layer stays an optional import.
    delta: Optional[TaskRunner] = None


_TASKS: Dict[str, TaskSpec] = {}


def register_task(spec: TaskSpec, override: bool = False) -> TaskSpec:
    """Register a decomposition task; ``override=True`` replaces."""
    if spec.name in _TASKS and not override:
        raise RegistryError(
            f"task {spec.name!r} is already registered "
            "(pass override=True to replace it)"
        )
    _TASKS[spec.name] = spec
    return spec


def unregister_task(name: str) -> None:
    """Remove a task (mainly for tests restoring a clean registry)."""
    _TASKS.pop(name, None)


def set_task_delta(name: str, delta: Optional[TaskRunner]) -> TaskSpec:
    """Attach (or clear) a task's incremental delta refresher.

    The built-in refreshers live in :mod:`repro.service.delta` and
    register themselves on first import, keeping the service subsystem
    out of the core import graph; third-party tasks use the same hook.
    """
    spec = get_task(name)
    spec = dataclasses.replace(spec, delta=delta)
    _TASKS[name] = spec
    return spec


def get_task(name: str) -> TaskSpec:
    try:
        return _TASKS[name]
    except KeyError:
        raise RegistryError(
            f"unknown task {name!r}; available: {available_tasks()}"
        ) from None


def available_tasks() -> Tuple[str, ...]:
    """Registered task names, sorted."""
    return tuple(sorted(_TASKS))

