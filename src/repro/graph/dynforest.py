"""A forest under link and cut, with O(1) connectivity and path by LCA.

:class:`DynamicForest` answers the query Algorithm 1 is phrased in —
``C(e, c)``, the unique ``u``–``v`` path of one color class — without a
search.  Every vertex keeps a parent pointer, the edge to its parent, a
depth, and the label of its tree; every label keeps its vertex set.

* :meth:`link` hangs the smaller tree under the other endpoint
  (small-to-large), re-rooting and relabelling only the smaller tree,
  so a vertex is relabelled O(log n) times over any run of links.
  Linking two vertices of one tree raises: the forest is its own cycle
  guard.
* :meth:`cut` searches both sides in lockstep and stops when the
  smaller one is exhausted, then re-roots and relabels only that side.
  If the larger side lost its root, its cut endpoint becomes the new
  root.  Depths are compared only inside one tree, so the constant
  offset this leaves behind is harmless.
* :meth:`connected` compares two labels; :meth:`path` climbs both
  endpoints by depth to their lowest common ancestor, in O(path
  length).

A vertex belongs to the forest while it has an incident edge.  Its
adjacency is an insertion-ordered ``{edge id: other endpoint}`` dict,
which reference searches may walk directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import GraphError


class DynamicForest:
    """A forest over integer vertex ids, edited by edge id."""

    def __init__(self) -> None:
        self.adj: Dict[int, Dict[int, int]] = {}
        self.edges: Dict[int, Tuple[int, int]] = {}
        self._parent: Dict[int, int] = {}  # a root is its own parent
        self._via: Dict[int, int] = {}  # edge to the parent; -1 at a root
        self._depth: Dict[int, int] = {}
        self._label: Dict[int, int] = {}
        self._members: Dict[int, Set[int]] = {}
        self._next_label = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def connected(self, u: int, v: int) -> bool:
        """True if ``u`` and ``v`` lie in one tree (both need an edge)."""
        label = self._label
        return u in label and v in label and label[u] == label[v]

    def component(self, vertex: int) -> Set[int]:
        """Vertices of ``vertex``'s tree; ``{vertex}`` if it has no edge."""
        label = self._label.get(vertex)
        if label is None:
            return {vertex}
        return set(self._members[label])

    def path(self, u: int, v: int) -> Optional[List[int]]:
        """Edge ids of the tree path in ``u`` -> ``v`` order.

        None when ``u`` and ``v`` are not connected (including when
        either has no edge); ``[]`` when ``u == v``.
        """
        if not self.connected(u, v):
            return None
        parent, via, depth = self._parent, self._via, self._depth
        up: List[int] = []
        down: List[int] = []
        du, dv = depth[u], depth[v]
        while du > dv:
            up.append(via[u])
            u = parent[u]
            du -= 1
        while dv > du:
            down.append(via[v])
            v = parent[v]
            dv -= 1
        while u != v:
            up.append(via[u])
            u = parent[u]
            down.append(via[v])
            v = parent[v]
        down.reverse()
        up.extend(down)
        return up

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def link(self, eid: int, u: int, v: int) -> None:
        """Add edge ``eid = uv``; raises if it would close a cycle."""
        if eid in self.edges:
            raise GraphError(f"edge {eid} is already in the forest")
        if u == v or self.connected(u, v):
            raise GraphError(f"linking edge {eid} would close a cycle")
        for vertex in (u, v):
            if vertex not in self.adj:
                self._add_vertex(vertex)
        self.adj[u][eid] = v
        self.adj[v][eid] = u
        self.edges[eid] = (u, v)
        small, big = u, v
        if len(self._members[self._label[u]]) > len(
            self._members[self._label[v]]
        ):
            small, big = v, u
        label = self._label[big]
        self._members[label] |= self._members.pop(self._label[small])
        self._hang(small, big, eid, self._depth[big] + 1, label)

    def cut(self, eid: int) -> None:
        """Remove edge ``eid``; its endpoints become disconnected."""
        try:
            u, v = self.edges.pop(eid)
        except KeyError:
            raise GraphError(f"edge {eid} is not in the forest") from None
        adj = self.adj
        del adj[u][eid]
        del adj[v][eid]
        child = u if self._via[u] == eid else v
        old = self._label[u]
        end, side = self._smaller_side(u, v)
        if end != child:
            # The root's side is re-rooted below; the subtree keeps its
            # pointers and depths and takes its endpoint as root.
            self._parent[child] = child
            self._via[child] = -1
        label = self._next_label
        self._next_label += 1
        members = set(side)
        self._members[old] -= members
        self._members[label] = members
        self._hang(end, end, -1, 0, label)
        for vertex in (u, v):
            if not adj[vertex]:
                self._drop_vertex(vertex)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _add_vertex(self, vertex: int) -> None:
        label = self._next_label
        self._next_label += 1
        self.adj[vertex] = {}
        self._parent[vertex] = vertex
        self._via[vertex] = -1
        self._depth[vertex] = 0
        self._label[vertex] = label
        self._members[label] = {vertex}

    def _drop_vertex(self, vertex: int) -> None:
        del self.adj[vertex]
        del self._parent[vertex]
        del self._via[vertex]
        del self._depth[vertex]
        label = self._label.pop(vertex)
        members = self._members[label]
        members.discard(vertex)
        if not members:
            del self._members[label]

    def _hang(
        self, root: int, parent: int, edge: int, depth: int, label: int
    ) -> None:
        """Re-root ``root``'s tree at ``root``, under ``parent`` via
        ``edge`` at ``depth``, and give all of it ``label``."""
        adj, parents, via = self.adj, self._parent, self._via
        depths, labels = self._depth, self._label
        parents[root] = parent
        via[root] = edge
        depths[root] = depth
        labels[root] = label
        stack = [root]
        while stack:
            vertex = stack.pop()
            skip = via[vertex]
            below = depths[vertex] + 1
            for eid, other in adj[vertex].items():
                if eid != skip:
                    parents[other] = vertex
                    via[other] = eid
                    depths[other] = below
                    labels[other] = label
                    stack.append(other)

    def _smaller_side(self, a: int, b: int) -> Tuple[int, List[int]]:
        """Search the trees of ``a`` and ``b`` in lockstep; return the
        endpoint whose tree was exhausted first, with its vertices."""
        adj = self.adj
        order_a, came_a = [a], [-1]
        order_b, came_b = [b], [-1]
        ia = ib = 0
        while ia < len(order_a) and ib < len(order_b):
            for eid, other in adj[order_a[ia]].items():
                if eid != came_a[ia]:
                    order_a.append(other)
                    came_a.append(eid)
            ia += 1
            for eid, other in adj[order_b[ib]].items():
                if eid != came_b[ib]:
                    order_b.append(other)
                    came_b.append(eid)
            ib += 1
        if ia == len(order_a):
            return a, order_a
        return b, order_b
