"""Distributed Lovász Local Lemma via parallel Moser–Tardos resampling.

The paper invokes the O(log n)-round LLL algorithm of [CPS17] under the
criterion ``e·p·d² ≤ 1 - Ω(1)`` (Section 1.1).  We implement the
resampling framework it is built on:

* an :class:`LLLInstance` declares independent variables (each with a
  sampler) and bad events (each reading a subset of variables);
* :func:`moser_tardos` repeatedly resamples the variables of violated
  events — either one event at a time (sequential; the classically
  convergent variant) or all violated events per round (parallel; one
  LOCAL round per iteration, O(log n) iterations w.h.p. under the
  [CPS17]-style criterion).

Each parallel iteration costs O(1) LOCAL rounds because every bad event
is locally checkable; we charge accordingly.

No library path runs this engine: the Section 5 star-forest algorithm
runs its own resampling loop over per-vertex color sets.  It stays here, with its tests
(``tests/test_lll.py``), as a worked model of the resampling the paper
cites.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Set

from repro.errors import ConvergenceError
from repro.local.rounds import RoundCounter, ensure_counter
from repro.rng import SeedLike, make_rng

Assignment = Dict[Hashable, Any]


class BadEvent:
    """A locally-checkable bad event over a subset of variables."""

    def __init__(
        self,
        name: str,
        variables: Sequence[Hashable],
        holds: Callable[[Assignment], bool],
    ) -> None:
        self.name = name
        self.variables = list(variables)
        self.holds = holds

    def __repr__(self) -> str:
        return f"BadEvent({self.name})"


class LLLInstance:
    """Variables with samplers + bad events over them."""

    def __init__(self) -> None:
        self._samplers: Dict[Hashable, Callable[[Any], Any]] = {}
        self.events: List[BadEvent] = []

    def add_variable(
        self, name: Hashable, sampler: Callable[[Any], Any]
    ) -> None:
        """Register a variable; ``sampler(rng)`` draws a fresh value."""
        if name in self._samplers:
            raise ValueError(f"variable {name!r} already declared")
        self._samplers[name] = sampler

    def add_event(
        self,
        name: str,
        variables: Sequence[Hashable],
        holds: Callable[[Assignment], bool],
    ) -> None:
        for var in variables:
            if var not in self._samplers:
                raise ValueError(f"event {name} references unknown variable {var!r}")
        self.events.append(BadEvent(name, variables, holds))

    def sample_all(self, rng) -> Assignment:
        return {name: sampler(rng) for name, sampler in self._samplers.items()}

    def violated(self, assignment: Assignment) -> List[BadEvent]:
        return [event for event in self.events if event.holds(assignment)]


def moser_tardos(
    instance: LLLInstance,
    seed: SeedLike = None,
    max_iterations: int = 10_000,
    parallel: bool = True,
    rounds: Optional[RoundCounter] = None,
) -> Assignment:
    """Find an assignment avoiding all bad events by resampling.

    ``parallel=True`` resamples the union of all violated events'
    variables each iteration (one LOCAL round each, O(log n) iterations
    w.h.p. under the epd² criterion); ``parallel=False`` resamples one
    violated event at a time (the classic sequential walk).  Raises
    :class:`ConvergenceError` if ``max_iterations`` is exhausted.
    """
    counter = ensure_counter(rounds)
    rng = make_rng(seed)
    assignment = instance.sample_all(rng)
    counter.charge(1, "LLL initial sampling")

    for _iteration in range(max_iterations):
        violated = instance.violated(assignment)
        if not violated:
            return assignment
        if parallel:
            to_resample: Set[Hashable] = set()
            for event in violated:
                to_resample.update(event.variables)
        else:
            to_resample = set(violated[0].variables)
        # Resample in variable *declaration* order, never set order:
        # with string-named variables, set iteration follows
        # PYTHONHASHSEED-randomized hashes, and the rng draws would
        # land on different variables per process — seeded runs would
        # stop reproducing (the PR 2 child_rng bug class).
        for var in instance._samplers:
            if var in to_resample:
                assignment[var] = instance._samplers[var](rng)
        counter.charge(1, "LLL resampling round")

    raise ConvergenceError(
        f"Moser-Tardos did not converge in {max_iterations} iterations "
        f"({len(instance.violated(assignment))} events still violated)"
    )


def dependency_degree(instance: LLLInstance) -> int:
    """Max number of other events sharing a variable with any event —
    the ``d`` of the LLL criterion, useful for diagnostics in benches."""
    by_var: Dict[Hashable, List[int]] = {}
    for index, event in enumerate(instance.events):
        for var in event.variables:
            by_var.setdefault(var, []).append(index)
    worst = 0
    for index, event in enumerate(instance.events):
        neighbors: Set[int] = set()
        for var in event.variables:
            neighbors.update(by_var[var])
        neighbors.discard(index)
        worst = max(worst, len(neighbors))
    return worst
