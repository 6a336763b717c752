"""Task and backend registries: the one seam where decompositions and
graph substrates plug into the public API.

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

*Backends* name graph substrates.  The built-ins are ``auto`` /
``dict`` / ``csr``, plus ``sharded``, ``parallel`` and ``mp``, retired
names registered as aliases of ``csr``.  A backend ultimately resolves
to the concrete substrate string the lower layers understand
(``"auto"``, ``"dict"`` or ``"csr"``), so a custom backend is free to
pick per-graph.

Use :func:`register_task` / :func:`register_backend` to extend either
registry (``override=True`` to replace an entry); unknown names raise
:class:`~repro.errors.RegistryError` listing what is available.
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
    #: the declared :class:`~repro.pipeline.pipeline.Pipeline` the
    #: runner executes (None for opaque third-party runners); this is
    #: what ``repro.describe(task)`` prints — the runner stays the
    #: entry point, the pipeline is its declared structure
    pipeline: Optional[Any] = None
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


@dataclass(frozen=True)
class BackendSpec:
    """One graph substrate: name and resolution rule."""

    name: str
    description: str = ""
    #: maps (graph) -> the concrete substrate string the lower layers
    #: accept; defaults to the backend's own name
    resolve: Optional[Callable[[Any], str]] = None

    def substrate_for(self, graph: Any) -> str:
        if self.resolve is None:
            return self.name
        return self.resolve(graph)


_TASKS: Dict[str, TaskSpec] = {}
_BACKENDS: Dict[str, BackendSpec] = {}


# ----------------------------------------------------------------------
# Tasks
# ----------------------------------------------------------------------


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


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


def register_backend(spec: BackendSpec, override: bool = False) -> BackendSpec:
    """Register a graph-substrate backend; ``override=True`` replaces."""
    if spec.name in _BACKENDS and not override:
        raise RegistryError(
            f"backend {spec.name!r} is already registered "
            "(pass override=True to replace it)"
        )
    _BACKENDS[spec.name] = spec
    return spec


def unregister_backend(name: str) -> None:
    _BACKENDS.pop(name, None)


def get_backend(name: str) -> BackendSpec:
    try:
        return _BACKENDS[name]
    except KeyError:
        raise RegistryError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))
