"""Pipeline: a validated DAG of declared passes.

Construction validates the declaration — duplicate pass names, unknown
dependencies and dependency cycles all raise
:class:`~repro.core.registry.RegistryError` — and compiles the DAG into
*levels* (antichains of the dependency order): level 0 holds the passes
with no dependencies, level ``k`` the passes whose deepest dependency
sits at level ``k - 1``.  Flattening the levels in declaration order
yields the canonical topological order the scheduler executes.

A :class:`RetryRule` declares a pipeline-level Las Vegas retry: when a
matching exception escapes a pass, execution restarts from the level
containing ``from_pass`` (built-in pipelines place the retried pass at
the start of its level), up to ``max_attempts`` total attempts.
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
    ``from_pass`` names the pass execution restarts from (its whole
    level re-runs); ``max_attempts`` caps total attempts — the final
    attempt re-raises; ``on_retry(ctx)``, when set, runs before each
    restart (built-in pipelines use it to bump retry counters).
    """

    exceptions: Tuple[Type[BaseException], ...]
    from_pass: str
    max_attempts: int = 5
    on_retry: Optional[Callable[[Any], None]] = None


class Pipeline:
    """An ordered, validated collection of :class:`Pass` declarations."""

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
        for p in self.passes:
            for dep in p.deps:
                if dep not in self._by_name:
                    raise RegistryError(
                        f"pipeline {name!r}: pass {p.name!r} depends on "
                        f"unknown pass {dep!r}"
                    )
        self._levels: Tuple[Tuple[Pass, ...], ...] = self._compile_levels()
        if retry is not None and retry.from_pass not in self._by_name:
            raise RegistryError(
                f"pipeline {name!r}: retry rule names unknown pass "
                f"{retry.from_pass!r}"
            )

    # -- structure -------------------------------------------------------

    def _compile_levels(self) -> Tuple[Tuple[Pass, ...], ...]:
        """Kahn's algorithm over declaration order; raises
        :class:`RegistryError` on a dependency cycle."""
        indegree = {p.name: len(set(p.deps)) for p in self.passes}
        dependents: Dict[str, List[str]] = {p.name: [] for p in self.passes}
        for p in self.passes:
            # dict.fromkeys = order-preserving dedup; iterating
            # set(p.deps) would walk hash-randomized string order.
            for dep in dict.fromkeys(p.deps):
                dependents[dep].append(p.name)
        placed: Dict[str, int] = {}
        frontier = [p.name for p in self.passes if indegree[p.name] == 0]
        level = 0
        while frontier:
            ready = set(frontier)
            for name in frontier:
                placed[name] = level
            nxt = []
            for name in frontier:
                for dependent in dependents[name]:
                    indegree[dependent] -= 1
                    if indegree[dependent] == 0 and dependent not in ready:
                        nxt.append(dependent)
            # Keep declaration order within the next level.
            nxt_set = set(nxt)
            frontier = [p.name for p in self.passes if p.name in nxt_set]
            level += 1
        if len(placed) < len(self.passes):
            stuck = [p.name for p in self.passes if p.name not in placed]
            raise RegistryError(
                f"pipeline {self.name!r}: dependency cycle among passes "
                f"{stuck!r}"
            )
        levels: List[List[Pass]] = [[] for _ in range(level)]
        for p in self.passes:
            levels[placed[p.name]].append(p)
        return tuple(tuple(lvl) for lvl in levels)

    @property
    def levels(self) -> Tuple[Tuple[Pass, ...], ...]:
        return self._levels

    def topological_order(self) -> List[Pass]:
        """Levels flattened in declaration order — the canonical serial
        execution order and the reference for bit-identity."""
        return [p for lvl in self._levels for p in lvl]

    def pass_names(self) -> List[str]:
        return [p.name for p in self.topological_order()]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Pass:
        return self._by_name[name]

    def retry_level(self) -> int:
        """Index of the level execution restarts from on retry."""
        if self.retry is None:
            return 0
        for i, lvl in enumerate(self._levels):
            if any(p.name == self.retry.from_pass for p in lvl):
                return i
        return 0  # unreachable: validated in __init__

    # -- introspection ---------------------------------------------------

    def describe(self) -> str:
        """Human-readable DAG listing (what ``repro describe`` prints)."""
        lines = [f"pipeline: {self.name}"]
        if self.description:
            lines.append(f"  {self.description}")
        lines.append("passes (topological order):")
        for i, p in enumerate(self.topological_order(), start=1):
            deps = ", ".join(p.deps) if p.deps else "-"
            lines.append(f"  {i}. {p.name}  (deps: {deps})")
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
