"""Hopcroft-Karp maximum bipartite matching, and greedy in bulk.

Section 5 of the paper builds, for every vertex ``v``, a bipartite graph
``H_v`` between colors and out-neighbors and needs a maximum (or
near-maximum) matching in it.  This module provides that from scratch.

The interface is adjacency-based: ``left_adjacency[i]`` lists the right
nodes adjacent to left node ``i``.  Right nodes are arbitrary hashables.

**Phase 1 of Hopcroft–Karp is greedy.**  Before the first phase no node
is matched, so the BFS gives every left node ``dist`` 0 and reaches no
matched right node; the DFS from left node ``i`` (in index order) can
then only take an edge to a *free* right node, and takes the first one
in ``left_adjacency[i]`` order.  That is :func:`greedy_matching`
exactly.  If greedy matched every left node, the next BFS starts from
no free left node and finds nothing, so Hopcroft–Karp returns the
greedy matching unchanged.  :func:`batched_greedy_matching` runs that
greedy on a whole stack of equal-shaped bipartite graphs at once
(Section 5's ``H_v`` for every ``v``); only the graphs where it leaves
a left node free need :func:`hopcroft_karp`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Sequence, Tuple

import numpy as np

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
    """Greedy matching: each left node in index order takes its first
    free right node.  Hopcroft–Karp's first phase (module docstring);
    it achieves at least half the maximum."""
    taken: set = set()
    match_left: Dict[int, Hashable] = {}
    for i, options in enumerate(left_adjacency):
        for r in options:
            if r not in taken:
                taken.add(r)
                match_left[i] = r
                break
    return match_left


def batched_greedy_matching(adjacency: np.ndarray) -> np.ndarray:
    """:func:`greedy_matching` on a stack of bipartite graphs at once.

    ``adjacency`` is a boolean ``(graphs, left, right)`` array: graph
    ``g`` has an edge ``(i, r)`` iff ``adjacency[g, i, r]``, and the
    right nodes of a left node are in index order.  Returns a
    ``(graphs, left)`` array holding the right node each left node
    took, or -1 where it stayed free — per graph, the same matching
    ``greedy_matching`` returns.  One step per left node, each an
    ``argmax`` over the still-free right nodes of every graph.
    """
    graphs, lefts, rights = adjacency.shape
    match = np.full((graphs, lefts), -1, dtype=np.int64)
    free = np.ones((graphs, rights), dtype=bool)
    rows = np.arange(graphs)
    for i in range(lefts):
        options = adjacency[:, i, :] & free
        first = options.argmax(axis=1)
        took = options[rows, first]
        match[took, i] = first[took]
        free[rows[took], first[took]] = False
    return match
