"""The machine's speed during a run, measured by a fixed reference kernel.

On a shared host the same code runs 20-40% slower for minutes at a time
(see README.md, "Post-mortem").  A fixed pure-Python kernel timed between
the calls of a run slows down with them, so the benchmark reports every
time metric scaled to a reference speed::

    reported = measured * REFERENCE_MS / median(kernel samples of the run)

The kernel is the library's kind of work (breadth-first search over
dict-of-set adjacency, the shape of the ball and augmenting-path loops),
but shares no code with it, so no change to ``src/`` can move it.  The
unscaled times are printed on the diagnostics line.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List, Set

#: Median kernel time inside a run on the reference machine (a 2-core
#: x86 VM, Intel Xeon at 2.1 GHz, Python 3.11.7), with nothing else
#: running.
REFERENCE_MS = 11.0
#: While calls run, one kernel sample is taken per this many seconds
#: (about 10% of a run): single samples spread 30% (IQR / median), so a
#: run needs on the order of a hundred of them.
TICK_SECONDS = 0.1
#: At most this many samples are taken at one tick.
MAX_BURST = 25
_VERTICES = 4000
_EDGES = 12000
_SOURCES = (0, 1, 2)


def _reference_graph() -> Dict[int, Set[int]]:
    rng = random.Random(5)
    adj: Dict[int, Set[int]] = {v: set() for v in range(_VERTICES)}
    for _ in range(_EDGES):
        a, b = rng.randrange(_VERTICES), rng.randrange(_VERTICES)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


_GRAPH = _reference_graph()


def kernel_ms() -> float:
    """One timed sample: a BFS from each of three fixed sources."""
    start = time.perf_counter()
    for source in _SOURCES:
        seen = {source}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in _GRAPH[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
    return 1000.0 * (time.perf_counter() - start)


class Speedometer:
    """Kernel samples of one run.  ``tick()`` is called outside the timed
    regions, before every call; it takes one sample per ``TICK_SECONDS``
    passed since the last one, so the samples follow the run's time
    whatever the length of its calls."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = -float("inf")

    def sample(self, count: int = 1) -> float:
        """Take ``count`` samples now; returns their median."""
        taken = [kernel_ms() for _ in range(count)]
        self.samples.extend(taken)
        self._last = time.perf_counter()
        return statistics.median(taken)

    def tick(self) -> None:
        due = int((time.perf_counter() - self._last) / TICK_SECONDS)
        if due > 0:
            self.sample(min(due, MAX_BURST))

    def median_ms(self, start: int = 0) -> float:
        """Median of the samples from index ``start`` on."""
        return statistics.median(self.samples[start:])

    def scale(self, start: int = 0) -> float:
        """Factor that turns a time measured while the samples from
        ``start`` on were taken into a time at the reference speed (below
        1 when the machine ran slow)."""
        return REFERENCE_MS / self.median_ms(start)
