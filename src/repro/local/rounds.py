"""Round accounting for the LOCAL model.

The composite algorithms in this library (Algorithm 2, the star-forest
pipeline, ...) are executed centrally but *locality-faithfully*: every
step only reads neighborhoods the distributed algorithm could see, and
charges the number of synchronous LOCAL rounds its distributed
counterpart would spend.  :class:`RoundCounter` accumulates those
charges, hierarchically labelled, so benches can report both total
round complexity and a per-phase breakdown.

Charging conventions (mirroring Section 1.1 and Theorem 4.1):

* simulating the power graph ``G^r`` costs ``r`` rounds of ``G``;
* collecting the radius-``r`` neighborhood of every vertex costs ``r``;
* processing a cluster of weak diameter ``d`` centrally costs ``O(d)``
  rounds (gather + scatter); we charge ``2 d + 1``;
* one synchronous message exchange costs 1 round.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class RoundCounter:
    """Hierarchical LOCAL-round accounting.

    Charges are attributed to the current label path (set with the
    :meth:`phase` context manager), e.g. ``algorithm2/network_decomposition``.
    Parallel structure matters in the LOCAL model: work done by distinct
    clusters of the same network-decomposition class happens in the same
    rounds.  Use :meth:`parallel` to record the *maximum* of a group of
    charges instead of their sum.
    """

    def __init__(self) -> None:
        self.total = 0
        self._by_phase: Dict[str, int] = {}
        self._stack: List[str] = []
        self._parallel_depth = 0
        self._parallel_max = 0

    # -- charging -------------------------------------------------------

    def charge(self, rounds: int, note: str = "") -> None:
        """Charge ``rounds`` LOCAL rounds to the current phase."""
        if rounds < 0:
            raise ValueError(f"cannot charge negative rounds: {rounds}")
        if self._parallel_depth > 0:
            self._parallel_max = max(self._parallel_max, rounds)
            return
        self.total += rounds
        key = "/".join(self._stack) if self._stack else "(top)"
        self._by_phase[key] = self._by_phase.get(key, 0) + rounds

    def charge_power_graph(self, radius: int) -> None:
        """Simulating ``G^r`` from ``G`` costs ``r`` rounds."""
        self.charge(max(0, radius), "power graph simulation")

    def charge_neighborhood(self, radius: int) -> None:
        """Gathering radius-``r`` balls costs ``r`` rounds."""
        self.charge(max(0, radius), "neighborhood gather")

    def charge_cluster(self, weak_diameter: int) -> None:
        """Central processing of a cluster: gather + scatter."""
        self.charge(2 * max(0, weak_diameter) + 1, "cluster processing")

    # -- structure ------------------------------------------------------

    @contextmanager
    def phase(self, label: str) -> Iterator[None]:
        """Attribute nested charges to ``label``."""
        self._stack.append(label)
        try:
            yield
        finally:
            self._stack.pop()

    @contextmanager
    def parallel(self) -> Iterator[None]:
        """Record the max (not the sum) of charges made inside.

        Models clusters of one network-decomposition class working in
        the same synchronous rounds.
        """
        self._parallel_depth += 1
        outer_max = self._parallel_max
        self._parallel_max = 0
        try:
            yield
        finally:
            self._parallel_depth -= 1
            group_max = self._parallel_max
            self._parallel_max = outer_max
            if self._parallel_depth > 0:
                self._parallel_max = max(self._parallel_max, group_max)
            else:
                self.charge(group_max, "parallel group")

    # -- reporting ------------------------------------------------------

    def by_phase(self) -> Dict[str, int]:
        """Copy of the per-phase totals."""
        return dict(self._by_phase)

    def report(self) -> str:
        """Human-readable multi-line accounting report."""
        lines = [f"total LOCAL rounds: {self.total}"]
        for key in sorted(self._by_phase):
            lines.append(f"  {key}: {self._by_phase[key]}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"RoundCounter(total={self.total})"


def ensure_counter(counter: Optional[RoundCounter]) -> RoundCounter:
    """Return ``counter`` or a fresh one — lets every algorithm accept
    ``rounds=None`` without littering call sites with conditionals."""
    return counter if counter is not None else RoundCounter()
