"""Disjoint-set (union-find): union-by-rank with path compression,
amortized near-constant operations.  Used wherever connectivity is
grown monotonically (forest validity checks, component counting).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List


class UnionFind:
    """Union-find over arbitrary hashable items with lazy insertion."""

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._rank: Dict[Hashable, int] = {}
        self._components = 0
        for item in items:
            self.add(item)

    def add(self, item: Hashable) -> None:
        """Insert ``item`` as a singleton if not already present."""
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0
            self._components += 1

    def __contains__(self, item: Hashable) -> bool:
        return item in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def components(self) -> int:
        """Number of disjoint sets currently tracked."""
        return self._components

    def find(self, item: Hashable) -> Hashable:
        """Return the canonical representative of ``item``'s set."""
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the sets of ``a`` and ``b``; return True if they were disjoint."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        self._components -= 1
        return True

    def connected(self, a: Hashable, b: Hashable) -> bool:
        """True if ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)

    def groups(self) -> List[List[Hashable]]:
        """Return the current partition as a list of member lists."""
        by_root: Dict[Hashable, List[Hashable]] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), []).append(item)
        return list(by_root.values())
