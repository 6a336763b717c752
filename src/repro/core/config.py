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
* ``diameter_mode`` — forest-diameter bounding per Corollary 2.5:
  ``None`` (unbounded), ``"safe"``, ``"strong"``, or ``"auto"``.
* ``cut_rule`` — CUT implementation per Theorem 4.2.
* ``validation`` — ``"none"`` (default), ``"basic"`` (structural
  checks via :mod:`repro.verify` after the run), or ``"full"``
  (structure + palette membership where applicable).
* ``options`` — task-specific extras (plain JSON values).

There is no substrate, carve or delta knob.  Every task runs on the
flat-array CSR kernel, the network decomposition always uses the
doubling ball carve, and
:meth:`~repro.core.session.Session.apply_delta` always repairs
incrementally, falling back to a full recompute past a fixed
dirty-vertex fraction (the result is bit-identical either way).
:meth:`DecompositionConfig.from_json` drops the removed fields from
persisted payloads when their value could not have changed a result.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import ValidationError
from ..rng import SeedLike

VALIDATION_LEVELS = ("none", "basic", "full")


@dataclass(frozen=True)
class DecompositionConfig:
    """Shared knobs for every task run through the task registry."""

    epsilon: Optional[float] = None
    alpha: Optional[int] = None
    seed: SeedLike = None
    diameter_mode: Optional[str] = None
    cut_rule: str = "depth_residue"
    validation: str = "none"
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.validation not in VALIDATION_LEVELS:
            raise ValidationError(
                f"unknown validation level {self.validation!r}; "
                f"expected one of {VALIDATION_LEVELS}"
            )
        if self.diameter_mode not in (None, "safe", "strong", "auto"):
            raise ValidationError(
                f"unknown diameter_mode {self.diameter_mode!r}"
            )
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValidationError(
                f"epsilon must be positive, got {self.epsilon}"
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
        exceptions are the retired ``workers`` (thread count),
        ``schedule`` (pass-execution mode), ``backend`` (graph
        substrate), ``delta_mode`` / ``delta_threshold`` (delta-engine
        latency) and ``carve_rule`` (network-decomposition schedule)
        fields: checkpoints and daemon payloads written before their
        removal carry them, so a value the old field accepted is
        dropped and any other value (a bool included) raises.  Of
        ``carve_rule`` only ``"doubling"`` is dropped: the removed
        ``"simultaneous"`` carve produced different clusters, so a
        payload naming it raises rather than silently change its
        results on resume.
        """
        payload = dict(payload)
        backend = payload.pop("backend", "auto")
        if not isinstance(backend, str) or backend not in _RETIRED_BACKENDS:
            raise ValidationError(
                f"backend must be one of {_RETIRED_BACKENDS}, got {backend!r}"
            )
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
        carve_rule = payload.pop("carve_rule", "doubling")
        if carve_rule != "doubling":
            raise ValidationError(
                f"carve_rule must be 'doubling', got {carve_rule!r}: "
                "the doubling carve is the only one left, and its "
                "clusters differ from the removed simultaneous carve's"
            )
        delta_mode = payload.pop("delta_mode", "auto")
        if delta_mode not in ("auto", "incremental", "full"):
            raise ValidationError(
                f"delta_mode must be 'auto', 'incremental' or 'full', "
                f"got {delta_mode!r}"
            )
        delta_threshold = payload.pop("delta_threshold", 0.25)
        if (
            not isinstance(delta_threshold, (int, float))
            or isinstance(delta_threshold, bool)
            or not 0.0 <= delta_threshold <= 1.0
        ):
            raise ValidationError(
                f"delta_threshold must be a fraction in [0, 1], "
                f"got {delta_threshold!r}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValidationError(
                f"unknown DecompositionConfig fields: {sorted(unknown)}"
            )
        return cls(**payload)


#: Every value the retired ``backend`` field ever accepted; all of them
#: produced the csr kernel's output.
_RETIRED_BACKENDS = ("auto", "dict", "csr", "sharded", "parallel", "mp")


def _json_roundtrips(value: Any) -> bool:
    try:
        json.dumps(value)
    except TypeError:
        return False
    return True
