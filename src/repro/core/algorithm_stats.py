"""Typed statistics containers for the core tasks.

Every task-level stats object is a dataclass deriving from
:class:`TaskStats`: it carries the executed per-stage
:class:`~repro.pipeline.PassStats` records in ``passes``,
indexes like a mapping (``result.stats["passes"]``), and serializes
through an explicit, documented :meth:`TaskStats.to_json` schema
(replacing the old best-effort ``vars()`` walk — the old keys are all
kept, including derived properties like ``max_deficit``, so existing
consumers of ``result.to_json()["stats"]`` see a superset).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..pipeline import PassStats


@dataclass
class TaskStats:
    """Base stats record: the per-stage execution history plus mapping
    access over the declared fields.

    ``to_json()`` emits every dataclass field by name; ``passes``
    serializes as a list of :meth:`PassStats.to_json` dicts; nested
    stats objects recurse through their own ``to_json``.
    """

    passes: List[PassStats] = field(default_factory=list)

    def __getitem__(self, key: str) -> Any:
        try:
            return getattr(self, key)
        except AttributeError:
            raise KeyError(key) from None

    def get(self, key: str, default: Any = None) -> Any:
        return getattr(self, key, default)

    def _alias_fields(self) -> Dict[str, Any]:
        """Subclass hook: derived old-key aliases to keep in the JSON
        view (one-release compatibility with the ``vars()`` walk)."""
        return {}

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name, value in vars(self).items():
            if name == "passes":
                continue
            if hasattr(value, "to_json"):
                out[name] = value.to_json()
            elif isinstance(value, (list, tuple)):
                out[name] = list(value)
            else:
                out[name] = value
        out.update(self._alias_fields())
        out["passes"] = [p.to_json() for p in self.passes]
        return out


@dataclass
class ListForestStats(TaskStats):
    """Diagnostics from the Theorem 4.10 task."""

    k0: int = 0  # smallest main-side palette after splitting
    k1: int = 0  # smallest reserve-side palette after splitting
    leftover_size: int = 0
    algorithm2: Optional[Any] = None  # Algorithm2Stats of the inner run
    reserve_retries: int = 0  # Las Vegas re-runs after an empty reserve


@dataclass
class StarForestStats(TaskStats):
    """Diagnostics from the Section 5 tasks."""

    matching_deficits: List[int] = field(default_factory=list)
    lll_rounds: int = 0
    leftover_size: int = 0
    orientation_bound: int = 0
    dummy_slots: int = 0

    @property
    def max_deficit(self) -> int:
        return max(self.matching_deficits, default=0)

    def _alias_fields(self) -> Dict[str, Any]:
        # The vars() walk used to export the property too.
        return {"max_deficit": self.max_deficit}
