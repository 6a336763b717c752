"""Partial list-forest decomposition state (Section 3).

:class:`PartialListForestDecomposition` is the mutable object the
augmentation framework operates on.  It tracks

* the coloring ``ψ: edge id -> color | None``;
* one :class:`~repro.graph.dynforest.DynamicForest` per color, so the
  path query ``C(e, c)`` — the unique ``u``–``v`` path in the
  color-``c`` forest for ``e = uv``, or ``∅`` when ``u`` and ``v`` are
  disconnected in that color — is a parent walk to the lowest common
  ancestor, not a search (this is the workhorse of Algorithm 1);
* the *leftover* edge set (edges removed by CUT), with the orientation
  recorded at removal time so the pseudo-arboricity accounting of
  Theorem 4.2 is checkable.

Every mutation maintains the invariant that each color class is a
forest: the forest's ``link`` refuses to close a cycle, and
``set_color`` turns that into a :class:`~repro.errors.ValidationError`.

The queries read the forests' parent pointers (paths, connectivity)
and per-tree vertex sets (components).  The test suite's reference
(``tests/reference/partial_coloring.py``) answers the same queries by a
BFS over each forest's adjacency; paths in a forest are unique and the
component queries are order-free, so both return identical values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import PaletteError, ValidationError
from ..graph.csr import snapshot_of
from ..graph.dynforest import DynamicForest
from ..graph.multigraph import MultiGraph
from ..graph.union_find import UnionFind

Palettes = Dict[int, Sequence[int]]


class PartialListForestDecomposition:
    """Mutable partial LFD over a multigraph with per-edge palettes."""

    def __init__(self, graph: MultiGraph, palettes: Palettes) -> None:
        self.graph = graph
        self.palettes = {
            eid: tuple(palettes[eid]) for eid in graph.edge_ids()
        }
        self._color: Dict[int, Optional[int]] = {
            eid: None for eid in graph.edge_ids()
        }
        # One link/cut forest per color class.
        self._forests: Dict[int, DynamicForest] = {}
        self._leftover: Set[int] = set()
        self._leftover_tail: Dict[int, int] = {}

    def csr_snapshot(self):
        """Flat-array snapshot of the host graph (cached on the graph).

        The augmentation framework never mutates the host graph (CUT
        removals live in this object, not the graph), so one snapshot
        serves every CUT region scan and augmenting search of a run.
        """
        return snapshot_of(self.graph)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def color_of(self, eid: int) -> Optional[int]:
        return self._color[eid]

    def palette(self, eid: int) -> Tuple[int, ...]:
        return self.palettes[eid]

    def is_leftover(self, eid: int) -> bool:
        return eid in self._leftover

    def leftover_edges(self) -> List[int]:
        return sorted(self._leftover)

    def leftover_orientation(self) -> Dict[int, int]:
        """edge id -> tail vertex recorded when CUT removed the edge."""
        return dict(self._leftover_tail)

    def uncolored_edges(self) -> List[int]:
        return [
            eid
            for eid, color in self._color.items()
            if color is None and eid not in self._leftover
        ]

    def coloring(self) -> Dict[int, Optional[int]]:
        """Copy of the full coloring map (leftover edges appear as None)."""
        return dict(self._color)

    def colored_edges(self) -> Dict[int, int]:
        """Only the colored edges, as edge id -> color."""
        return {e: c for e, c in self._color.items() if c is not None}

    def used_colors(self) -> Set[int]:
        return {c for c in self._color.values() if c is not None}

    def class_edges(self, color: int) -> List[int]:
        """Edge ids currently holding ``color``."""
        forest = self._forests.get(color)
        return sorted(forest.edges) if forest is not None else []

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def set_color(self, eid: int, color: int, check_palette: bool = True) -> None:
        """Color (or recolor) an edge; refuses cycles and leftover edges."""
        if eid in self._leftover:
            raise ValidationError(f"edge {eid} was removed by CUT")
        if check_palette and color not in self.palettes[eid]:
            raise PaletteError(
                f"color {color!r} not in palette of edge {eid}"
            )
        u, v = self.graph.endpoints(eid)
        current = self._color[eid]
        if current == color:
            return
        if current is not None:
            self._detach(eid, current)
        forest = self._forests.get(color)
        if forest is not None and forest.connected(u, v):
            # Restore previous state before failing.
            if current is not None:
                self._attach(eid, current)
            raise ValidationError(
                f"coloring edge {eid} with {color!r} would close a cycle"
            )
        self._attach(eid, color)
        self._color[eid] = color

    def uncolor(self, eid: int) -> None:
        current = self._color[eid]
        if current is not None:
            self._detach(eid, current)
            self._color[eid] = None

    def remove_to_leftover(self, eid: int, tail: Optional[int] = None) -> None:
        """CUT removal: uncolor the edge and exclude it from the instance.

        ``tail`` records the orientation chosen by the load-balancing
        argument (the vertex charged for the removal).
        """
        self.uncolor(eid)
        self._leftover.add(eid)
        if tail is not None:
            u, v = self.graph.endpoints(eid)
            if tail not in (u, v):
                raise ValidationError(
                    f"tail {tail} is not an endpoint of edge {eid}"
                )
            self._leftover_tail[eid] = tail

    def _attach(self, eid: int, color: int) -> None:
        u, v = self.graph.endpoints(eid)
        forest = self._forests.get(color)
        if forest is None:
            forest = self._forests[color] = DynamicForest()
        forest.link(eid, u, v)

    def _detach(self, eid: int, color: int) -> None:
        self._forests[color].cut(eid)

    # ------------------------------------------------------------------
    # Path queries
    # ------------------------------------------------------------------

    def color_path(self, eid: int, color: int) -> Optional[List[int]]:
        """``C(e, c)``: edge ids of the unique u-v path in color ``c``.

        Returns None when u, v are disconnected in color ``c`` (the
        paper's ``C(e, c) = ∅``).  When the edge itself has color ``c``
        the path is the edge itself (the trivial u-v path).
        """
        u, v = self.graph.endpoints(eid)
        if self._color[eid] == color:
            return [eid]
        return self._path_search(u, v, color)

    def _path_search(self, u: int, v: int, color: int) -> Optional[List[int]]:
        forest = self._forests.get(color)
        if forest is None:
            return None
        return forest.path(u, v)

    def color_component_vertices(
        self, start: int, color: int
    ) -> Set[int]:
        """Vertices reachable from ``start`` through color-``c`` edges."""
        forest = self._forests.get(color)
        if forest is None or start not in forest.adj:
            return {start}
        return forest.component(start)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def assert_valid(self) -> None:
        """Re-verify from scratch that each color class is a forest and
        every color is from its edge's palette."""
        by_color: Dict[int, List[int]] = {}
        for eid, color in self._color.items():
            if color is None:
                continue
            if color not in self.palettes[eid]:
                raise ValidationError(
                    f"edge {eid} holds color {color!r} outside its palette"
                )
            if eid in self._leftover:
                raise ValidationError(f"leftover edge {eid} is colored")
            by_color.setdefault(color, []).append(eid)
        for color, eids in by_color.items():
            uf = UnionFind()
            for eid in eids:
                u, v = self.graph.endpoints(eid)
                if not uf.union(u, v):
                    raise ValidationError(
                        f"color {color!r} contains a cycle (edge {eid})"
                    )
