"""Pipeline: an ordered list of declared passes.

The paper's algorithms run their stages in a fixed order, so a
pipeline is its passes in execution order.  Construction rejects
duplicate pass names and a retry rule naming an unknown pass, both
with :class:`~repro.errors.RegistryError`.

A :class:`RetryRule` declares a pipeline-level Las Vegas retry: when a
matching exception escapes a pass, execution restarts at ``from_pass``
and re-runs every pass after it, up to ``max_attempts`` total attempts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..errors import RegistryError
from .passes import Pass


@dataclass(frozen=True)
class RetryRule:
    """Las Vegas retry declaration for a pipeline.

    ``exceptions`` are the exception types that trigger a retry;
    ``from_pass`` names the pass execution restarts from (it and every
    later pass re-run); ``max_attempts`` caps total attempts — the final
    attempt re-raises; ``on_retry(ctx)``, when set, runs before each
    restart (built-in pipelines use it to bump retry counters).
    """

    exceptions: Tuple[Type[BaseException], ...]
    from_pass: str
    max_attempts: int = 5
    on_retry: Optional[Callable[[Any], None]] = None


class Pipeline:
    """An ordered, validated list of :class:`Pass` declarations."""

    def __init__(
        self,
        name: str,
        passes: Sequence[Pass],
        description: str = "",
        result_key: str = "result",
        retry: Optional[RetryRule] = None,
    ) -> None:
        self.name = name
        self.passes: Tuple[Pass, ...] = tuple(passes)
        self.description = description
        self.result_key = result_key
        self.retry = retry
        self._by_name: Dict[str, Pass] = {}
        for p in self.passes:
            if p.name in self._by_name:
                raise RegistryError(
                    f"pipeline {name!r}: duplicate pass {p.name!r}"
                )
            self._by_name[p.name] = p
        if retry is not None and retry.from_pass not in self._by_name:
            raise RegistryError(
                f"pipeline {name!r}: retry rule names unknown pass "
                f"{retry.from_pass!r}"
            )

    # -- structure -------------------------------------------------------

    def pass_names(self) -> List[str]:
        return [p.name for p in self.passes]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Pass:
        return self._by_name[name]

    # -- introspection ---------------------------------------------------

    def describe(self) -> str:
        """Human-readable pass listing (what ``repro describe`` prints)."""
        lines = [f"pipeline: {self.name}"]
        if self.description:
            lines.append(f"  {self.description}")
        lines.append("passes (execution order):")
        for i, p in enumerate(self.passes, start=1):
            lines.append(f"  {i}. {p.name}")
            if p.description:
                lines.append(f"       {p.description}")
            if p.citation:
                lines.append(f"       [{p.citation}]")
        if self.retry is not None:
            names = ", ".join(e.__name__ for e in self.retry.exceptions)
            lines.append(
                f"retry: on {names} restart from "
                f"{self.retry.from_pass!r} (max {self.retry.max_attempts} "
                "attempts)"
            )
        return "\n".join(lines)
