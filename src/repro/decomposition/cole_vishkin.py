"""Centralized Cole–Vishkin 3-coloring of rooted forests, round-charged.

The distributed algorithm runs in O(log* n) LOCAL rounds ([CV86]; used
by Theorem 2.1(3)).  This implementation executes the same per-round
update centrally, charging the round cost to a
:class:`~repro.local.rounds.RoundCounter`.  The genuinely distributed
node-program version lives in :mod:`repro.local.algorithms`; the two
are cross-checked in tests.

A rooted forest is given as its parent map ``{vertex: parent or
None}``: the library's callers derive it from the stacked rooting
kernel (:func:`~repro.graph.csr.rooted_forest_class_depths`), and a
:class:`~repro.graph.forests.RootedForest` hands over its ``parent``.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..local.rounds import RoundCounter, ensure_counter


def _lowest_differing_bit(a: int, b: int) -> int:
    return ((a ^ b) & -(a ^ b)).bit_length() - 1


def _reduction_iterations(n: int) -> int:
    bound = max(n, 2)
    iterations = 0
    while bound > 6:
        bound = 2 * ((bound - 1).bit_length())
        iterations += 1
    return iterations + 1


def three_color_rooted_forest(
    parent: Dict[int, Optional[int]], rounds: Optional[RoundCounter] = None
) -> Dict[int, int]:
    """Proper 3-coloring of the vertices of a rooted forest.

    ``parent`` maps every vertex the forest spans to its parent, or to
    None for a root; vertices outside it are absent from the result.
    Charges O(log* n) LOCAL rounds.
    """
    counter = ensure_counter(rounds)
    vertices = list(parent)
    if not vertices:
        return {}

    color: Dict[int, int] = {v: v for v in vertices}
    iterations = _reduction_iterations(len(vertices) + max(vertices, default=1))

    # Phase 1: bit reduction to colors in {0..5}.
    for _ in range(iterations):
        new_color: Dict[int, int] = {}
        for v in vertices:
            up = parent[v]
            parent_color = color[up] if up is not None else color[v] ^ 1
            bit = _lowest_differing_bit(color[v], parent_color)
            new_color[v] = 2 * bit + ((color[v] >> bit) & 1)
        color = new_color
    counter.charge(iterations, "cole-vishkin bit reduction")

    # Phase 2: three shift-down + eliminate phases (each 2 rounds).
    for target in (5, 4, 3):
        pre = color
        shifted: Dict[int, int] = {}
        for v in vertices:
            up = parent[v]
            if up is not None:
                shifted[v] = pre[up]
            else:
                shifted[v] = min(c for c in (0, 1, 2) if c != pre[v])
        color = {}
        for v in vertices:
            if shifted[v] == target:
                up = parent[v]
                parent_post = shifted[up] if up is not None else -1
                forbidden = {parent_post, pre[v]}
                color[v] = min(c for c in (0, 1, 2) if c not in forbidden)
            else:
                color[v] = shifted[v]
        counter.charge(2, "shift-down + eliminate")

    return color
