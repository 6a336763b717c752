"""Hopcroft-Karp maximum bipartite matching.

Section 5 of the paper builds, for every vertex ``v``, a bipartite graph
``H_v`` between colors and out-neighbors and needs a maximum (or
near-maximum) matching in it.  This module provides that from scratch.

The interface is adjacency-based: ``left_adjacency[i]`` lists the right
nodes adjacent to left node ``i``.  Right nodes are arbitrary hashables.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Sequence, Tuple

INFINITY = float("inf")


def hopcroft_karp(
    left_adjacency: Sequence[Sequence[Hashable]],
) -> Tuple[Dict[int, Hashable], Dict[Hashable, int]]:
    """Maximum matching of a bipartite graph.

    Parameters
    ----------
    left_adjacency:
        ``left_adjacency[i]`` is the iterable of right-node labels
        adjacent to left node ``i`` (left nodes are ``0..len-1``).

    Returns
    -------
    (match_left, match_right):
        ``match_left[i] = r`` and ``match_right[r] = i`` for every
        matched pair; unmatched nodes are absent.
    """
    n_left = len(left_adjacency)
    match_left: Dict[int, Hashable] = {}
    match_right: Dict[Hashable, int] = {}
    dist: Dict[int, float] = {}

    def bfs() -> bool:
        queue: deque = deque()
        for i in range(n_left):
            if i not in match_left:
                dist[i] = 0
                queue.append(i)
            else:
                dist[i] = INFINITY
        found_free = False
        while queue:
            i = queue.popleft()
            for r in left_adjacency[i]:
                j = match_right.get(r)
                if j is None:
                    found_free = True
                elif dist[j] == INFINITY:
                    dist[j] = dist[i] + 1
                    queue.append(j)
        return found_free

    def dfs(i: int) -> bool:
        for r in left_adjacency[i]:
            j = match_right.get(r)
            if j is None or (dist[j] == dist[i] + 1 and dfs(j)):
                match_left[i] = r
                match_right[r] = i
                return True
        dist[i] = INFINITY
        return False

    while bfs():
        for i in range(n_left):
            if i not in match_left:
                dfs(i)
    return match_left, match_right


def maximum_matching_size(left_adjacency: Sequence[Sequence[Hashable]]) -> int:
    """Size of a maximum matching (convenience wrapper)."""
    match_left, _ = hopcroft_karp(left_adjacency)
    return len(match_left)


def greedy_matching(
    left_adjacency: Sequence[Sequence[Hashable]],
) -> Dict[int, Hashable]:
    """Simple greedy matching — a fast baseline used in tests as a lower
    bound oracle (greedy achieves at least half the maximum)."""
    taken: set = set()
    match_left: Dict[int, Hashable] = {}
    for i, options in enumerate(left_adjacency):
        for r in options:
            if r not in taken:
                taken.add(r)
                match_left[i] = r
                break
    return match_left
