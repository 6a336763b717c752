"""Partial list-forest decomposition state (Section 3).

:class:`PartialListForestDecomposition` is the mutable object the
augmentation framework operates on.  It tracks

* the coloring ``ψ: edge id -> color | None``;
* per-color adjacency, so the path query ``C(e, c)`` — the unique
  ``u``–``v`` path in the color-``c`` forest for ``e = uv``, or ``∅``
  when ``u`` and ``v`` are disconnected in that color — runs as one BFS
  over the color class (this is the workhorse of Algorithm 1);
* the *leftover* edge set (edges removed by CUT), with the orientation
  recorded at removal time so the pseudo-arboricity accounting of
  Theorem 4.2 is checkable.

Every mutation maintains the invariant that each color class is a
forest; ``set_color`` refuses to close a cycle.

The color-class BFS runs on one of three substrates.  The dict backend
is the original per-color adjacency-dict walk, preserved as the
reference path.  The csr backend extracts the color class as a sub-CSR
over the host snapshot's dense indices (a color class is just an edge
subset, so :meth:`~repro.graph.csr.CSRGraph.edge_subset_csr_arrays`
produces its flat adjacency directly) and sweeps it with frontier-array
BFS; the extraction is cached per color and invalidated by a version
counter bumped on every attach/detach.  The parallel backend routes
those sweeps through the shared
:class:`~repro.parallel.engine.WaveEngine` (shard-fanned frontier
gathers, ``workers`` threads), auto-gated by frontier size so small
color classes stay serial.  ``backend="auto"`` keeps small classes on
the dict path — rebuilding arrays there costs more than the walk — and
moves classes past the extraction threshold onto the kernel.  All
paths return identical values: paths in a forest are unique, and the
component/connectivity queries are order-free.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import PaletteError, ValidationError
from ..graph.csr import (
    _canonical_backend,
    _concat_ranges,
    bfs_distance_array,
    force_parallel_traversal,
    snapshot_of,
)
from ..graph.multigraph import MultiGraph
from ..graph.union_find import UnionFind
from ..parallel.bfs import parallel_bfs_distance_array
from ..parallel.engine import engine_for

Palettes = Dict[int, Sequence[int]]

# A color class moves onto the sub-CSR path once it has this many edges
# AND is dense relative to the host (>= n/8 edges): below either bound
# the dict walk beats the array extraction.
COLOR_CSR_MIN_EDGES = 64


class PartialListForestDecomposition:
    """Mutable partial LFD over a multigraph with per-edge palettes."""

    def __init__(
        self,
        graph: MultiGraph,
        palettes: Palettes,
        backend: str = "auto",
        workers: int = 0,
    ) -> None:
        backend = _canonical_backend(backend)
        if backend not in ("auto", "dict", "csr", "parallel"):
            raise ValidationError(f"unknown color-class backend {backend!r}")
        self.graph = graph
        self.backend = backend
        self.workers = workers
        self._engine = None  # lazy wave engine over the host snapshot
        self.palettes = {
            eid: tuple(palettes[eid]) for eid in graph.edge_ids()
        }
        self._color: Dict[int, Optional[int]] = {
            eid: None for eid in graph.edge_ids()
        }
        # _adj[color][vertex] = list of (eid, other endpoint)
        self._adj: Dict[int, Dict[int, List[Tuple[int, int]]]] = {}
        self._leftover: Set[int] = set()
        self._leftover_tail: Dict[int, int] = {}
        # Per-color kernel bookkeeping: the edge set feeding the sub-CSR
        # extraction, a version stamp bumped on every mutation, and the
        # extracted (offsets, neighbors, edge ids) arrays keyed by the
        # version they were built at.
        self._class_eids: Dict[int, Set[int]] = {}
        self._class_version: Dict[int, int] = {}
        self._class_arrays: Dict[int, Tuple[int, Tuple]] = {}

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
        out = []
        for _vertex, incident in self._adj.get(color, {}).items():
            out.extend(eid for eid, _other in incident)
        return sorted(set(out))

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
        if self._connected_in_color(u, v, color):
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
        adj = self._adj.setdefault(color, {})
        adj.setdefault(u, []).append((eid, v))
        adj.setdefault(v, []).append((eid, u))
        self._class_eids.setdefault(color, set()).add(eid)
        self._class_version[color] = self._class_version.get(color, 0) + 1

    def _detach(self, eid: int, color: int) -> None:
        u, v = self.graph.endpoints(eid)
        adj = self._adj[color]
        adj[u] = [(e, w) for e, w in adj[u] if e != eid]
        if not adj[u]:
            del adj[u]
        adj[v] = [(e, w) for e, w in adj[v] if e != eid]
        if not adj[v]:
            del adj[v]
        self._class_eids[color].discard(eid)
        self._class_version[color] = self._class_version.get(color, 0) + 1

    # ------------------------------------------------------------------
    # Path queries
    # ------------------------------------------------------------------

    def _use_kernel(self, color: int) -> bool:
        if self.backend == "dict":
            return False
        eids = self._class_eids.get(color)
        if not eids:
            return False
        if self.backend in ("csr", "parallel"):
            return True
        return (
            len(eids) >= COLOR_CSR_MIN_EDGES
            and 8 * len(eids) >= self.graph.n
        )

    def _wave_engine(self):
        """The shared wave engine for kernel-backed color-class sweeps,
        or None when this instance runs serial.  Active for
        ``backend="parallel"`` and under ``REPRO_FORCE_PARALLEL``; waves
        below the engine's frontier gate run inline either way, so small
        color classes stay serial with identical results."""
        if self.backend != "parallel" and not force_parallel_traversal():
            return None
        if self._engine is None:
            self._engine = engine_for(self.csr_snapshot(), self.workers)
        return self._engine

    def _color_arrays(self, color: int) -> Tuple:
        """Cached sub-CSR ``(offsets, neighbors, edge ids)`` of a color
        class, rebuilt when the class mutated since extraction."""
        version = self._class_version.get(color, 0)
        cached = self._class_arrays.get(color)
        if cached is not None and cached[0] == version:
            return cached[1]
        arrays = self.csr_snapshot().edge_subset_csr_arrays(
            sorted(self._class_eids[color])
        )
        self._class_arrays[color] = (version, arrays)
        return arrays

    def _connected_in_color(self, u: int, v: int, color: int) -> bool:
        return self._path_search(u, v, color) is not None

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
        adj = self._adj.get(color)
        if not adj or u not in adj or v not in adj:
            return None
        if u == v:
            return []
        if self._use_kernel(color):
            return self._path_search_kernel(u, v, color)
        parent: Dict[int, Tuple[int, int]] = {u: (u, -1)}
        queue = deque([u])
        while queue:
            vertex = queue.popleft()
            for eid, other in adj.get(vertex, ()):
                if other not in parent:
                    parent[other] = (vertex, eid)
                    if other == v:
                        path = []
                        walk = v
                        while walk != u:
                            prev, via = parent[walk]
                            path.append(via)
                            walk = prev
                        path.reverse()
                        return path
                    queue.append(other)
        return None

    def _path_search_kernel(self, u: int, v: int, color: int) -> Optional[List[int]]:
        """Frontier-array BFS on the color class's sub-CSR.

        The path in a forest is unique, so the returned edge list is
        identical to the dict walk's.
        """
        snap = self.csr_snapshot()
        offsets, nbr, eids = self._color_arrays(color)
        src = snap.index_of(u)
        dst = snap.index_of(v)
        n = snap.num_vertices
        engine = self._wave_engine()
        parent_eid = np.full(n, -1, dtype=np.int64)
        parent_vtx = np.full(n, -1, dtype=np.int64)
        visited = np.zeros(n, dtype=bool)
        visited[src] = True
        frontier = np.asarray([src], dtype=np.int64)

        def expand(part: np.ndarray):
            # Shard-phase kernel: reads the frozen visited mask; the
            # per-group filtered triples concatenate in plan order, so
            # the engine path sees the serial gather byte for byte.
            lengths_ = offsets[part + 1] - offsets[part]
            half = _concat_ranges(offsets[part], offsets[part + 1])
            origins_ = np.repeat(part, lengths_)
            targets_ = nbr[half]
            via_ = eids[half]
            fresh_ = ~visited[targets_]
            return targets_[fresh_], via_[fresh_], origins_[fresh_]

        while frontier.size and not visited[dst]:
            if engine is None:
                targets, via, origins = expand(frontier)
            else:
                cost = int((offsets[frontier + 1] - offsets[frontier]).sum())
                targets, via, origins = engine.gather(expand, frontier, cost)
            # Within a level a vertex may be reached via several edges;
            # first occurrence wins (any parent reconstructs the same
            # unique path — color classes are forests).
            targets, first = np.unique(targets, return_index=True)
            visited[targets] = True
            parent_eid[targets] = via[first]
            parent_vtx[targets] = origins[first]
            frontier = targets
        if not visited[dst]:
            return None
        path: List[int] = []
        walk = dst
        while walk != src:
            path.append(int(parent_eid[walk]))
            walk = int(parent_vtx[walk])
        path.reverse()
        return path

    def color_component_vertices(
        self, start: int, color: int
    ) -> Set[int]:
        """Vertices reachable from ``start`` through color-``c`` edges."""
        adj = self._adj.get(color, {})
        if start not in adj:
            return {start}
        if self._use_kernel(color):
            snap = self.csr_snapshot()
            offsets, nbr, _eids = self._color_arrays(color)
            engine = self._wave_engine()
            if engine is not None:
                dist = parallel_bfs_distance_array(
                    offsets, nbr, snap.num_vertices,
                    [snap.index_of(start)], engine=engine,
                )
            else:
                dist = bfs_distance_array(
                    offsets, nbr, snap.num_vertices, [snap.index_of(start)]
                )
            return set(snap.vertex_ids[dist >= 0].tolist())
        seen = {start}
        queue = deque([start])
        while queue:
            vertex = queue.popleft()
            for _eid, other in adj.get(vertex, ()):
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        return seen

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
