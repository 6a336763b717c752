"""One configuration object for every decomposition task.

Before this module each public entry point grew its own kwarg set
(``diameter_mode`` on forests, ``method`` on orientations, ``splitting``
on list forests, ...), which made it impossible to hold "how we
decompose" as a value — to serialize it next to a result, to share it
across the tasks of a :class:`~repro.core.session.Session`, or to sweep
it in a benchmark.  :class:`DecompositionConfig` is that value: the
knobs every task understands, JSON round-trippable, with task-specific
extras carried in :attr:`DecompositionConfig.options`.

Semantics of the shared fields:

* ``epsilon`` — excess-color budget; ``None`` means "this task's
  conventional default" (0.5 for forests, 0.25 for star forests, ...),
  resolved at dispatch time by the task spec.
* ``alpha`` — arboricity if known; ``None`` defers to the session's
  memoized exact computation (Gabow–Westermann ground truth).
* ``seed`` — root of the deterministic RNG tree; equal seeds reproduce
  results bit-for-bit.
* ``backend`` — graph substrate: ``"auto"`` (default; each layer picks
  the kernel or the reference path, see
  :func:`~repro.graph.csr.resolve_backend`), ``"dict"`` (byte-identical
  reference paths) or ``"csr"`` (flat-array kernel).  Any other name
  raises; :meth:`DecompositionConfig.from_json` still loads the
  retired names of persisted configs.
* ``diameter_mode`` — forest-diameter bounding per Corollary 2.5:
  ``None`` (unbounded), ``"safe"``, ``"strong"``, or ``"auto"``.
* ``cut_rule`` — CUT implementation per Theorem 4.2.
* ``carve_rule`` — ball-growth schedule of the network decomposition:
  ``"doubling"`` (default; one ball at a time, grow until the next
  shell stops doubling it) or ``"simultaneous"`` (every unvisited
  vertex is a live seed on a staggered start; contested vertices
  resolve by ``(level, seed id)``).
* ``validation`` — ``"none"`` (default), ``"basic"`` (structural
  checks via :mod:`repro.verify` after the run), or ``"full"``
  (structure + palette membership where applicable).
* ``delta_mode`` — how :meth:`~repro.core.session.Session.apply_delta`
  maintains watched decompositions under edge-stream mutations:
  ``"auto"`` (default; repair the dirty cascade incrementally, fall
  back to a full recompute when the dirty fraction crosses
  ``delta_threshold``), ``"incremental"`` (never fall back on dirty
  fraction — still recomputes when repair is structurally
  impossible), or ``"full"`` (always recompute from scratch).  The
  post-delta result is bit-identical in every mode — this is purely a
  latency knob.
* ``delta_threshold`` — dirty-fraction cutoff for ``delta_mode="auto"``
  in ``[0, 1]``: when more than ``delta_threshold * n`` vertices
  change their H-partition wave during repair, the delta engine
  abandons the cascade and recomputes from scratch.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import ValidationError
from ..rng import SeedLike

VALIDATION_LEVELS = ("none", "basic", "full")
CARVE_RULES = ("doubling", "simultaneous")
DELTA_MODES = ("auto", "incremental", "full")


@dataclass(frozen=True)
class DecompositionConfig:
    """Shared knobs for every task run through the task registry."""

    epsilon: Optional[float] = None
    alpha: Optional[int] = None
    seed: SeedLike = None
    backend: str = "auto"
    diameter_mode: Optional[str] = None
    cut_rule: str = "depth_residue"
    carve_rule: str = "doubling"
    validation: str = "none"
    delta_mode: str = "auto"
    delta_threshold: float = 0.25
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.backend not in ("auto", "dict", "csr"):
            raise ValidationError(
                f"unknown backend {self.backend!r}; "
                "expected one of ('auto', 'dict', 'csr')"
            )
        if self.validation not in VALIDATION_LEVELS:
            raise ValidationError(
                f"unknown validation level {self.validation!r}; "
                f"expected one of {VALIDATION_LEVELS}"
            )
        if self.diameter_mode not in (None, "safe", "strong", "auto"):
            raise ValidationError(
                f"unknown diameter_mode {self.diameter_mode!r}"
            )
        if self.carve_rule not in CARVE_RULES:
            raise ValidationError(
                f"unknown carve_rule {self.carve_rule!r}; "
                f"expected one of {CARVE_RULES}"
            )
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValidationError(
                f"epsilon must be positive, got {self.epsilon}"
            )
        if self.delta_mode not in DELTA_MODES:
            raise ValidationError(
                f"unknown delta_mode {self.delta_mode!r}; "
                f"expected one of {DELTA_MODES}"
            )
        if (
            not isinstance(self.delta_threshold, (int, float))
            or isinstance(self.delta_threshold, bool)
            or not 0.0 <= self.delta_threshold <= 1.0
        ):
            raise ValidationError(
                f"delta_threshold must be a fraction in [0, 1], "
                f"got {self.delta_threshold!r}"
            )

    # -- evolution ------------------------------------------------------

    def replace(self, **changes: Any) -> "DecompositionConfig":
        """A copy with ``changes`` applied (the config is frozen)."""
        return dataclasses.replace(self, **changes)

    def with_defaults(self, epsilon: float) -> "DecompositionConfig":
        """Resolve ``epsilon=None`` against a task's default."""
        if self.epsilon is not None:
            return self
        return self.replace(epsilon=epsilon)

    # -- serialization --------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """A JSON-serializable dict; inverse of :meth:`from_json`."""
        payload = dataclasses.asdict(self)
        if not _json_roundtrips(payload["seed"]):
            raise ValidationError(
                f"seed {self.seed!r} is not JSON-serializable; use an "
                "int/str seed for configs that must round-trip"
            )
        for key, value in payload["options"].items():
            if not _json_roundtrips(value):
                raise ValidationError(
                    f"options[{key!r}] = {value!r} is not "
                    "JSON-serializable; configs that must round-trip "
                    "need plain JSON option values"
                )
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "DecompositionConfig":
        """Rebuild a config from :meth:`to_json` output.

        Unknown keys raise so that configs written by a newer library
        version fail loudly instead of being silently truncated.  The
        exceptions are the retired ``workers`` (thread count) and
        ``schedule`` (pass-execution mode) fields: checkpoints and
        daemon payloads written before their removal carry them, so a
        value the old field accepted is dropped and any other value
        (a bool included) raises.  Likewise the retired backend names
        ``"sharded"``, ``"parallel"`` and ``"mp"`` ran the csr kernel,
        so they load as ``"csr"``.
        """
        payload = dict(payload)
        if payload.get("backend") in _RETIRED_BACKENDS:
            payload["backend"] = "csr"
        workers = payload.pop("workers", 0)
        if (
            not isinstance(workers, int)
            or isinstance(workers, bool)
            or workers < 0
        ):
            raise ValidationError(
                f"workers must be a nonnegative int, got {workers!r}"
            )
        schedule = payload.pop("schedule", "auto")
        if schedule not in ("auto", "serial", "concurrent"):
            raise ValidationError(
                f"schedule must be 'auto', 'serial' or 'concurrent', "
                f"got {schedule!r}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValidationError(
                f"unknown DecompositionConfig fields: {sorted(unknown)}"
            )
        return cls(**payload)


#: Backend names of the retired thread and process executors; every one
#: ran the csr kernel when it was last accepted.
_RETIRED_BACKENDS = ("sharded", "parallel", "mp")


def _json_roundtrips(value: Any) -> bool:
    try:
        json.dumps(value)
    except TypeError:
        return False
    return True
