"""Independent validity checkers for every output the library produces.

These re-derive each guarantee from scratch (separate code paths from
the algorithms), so a bug in an algorithm cannot hide a bug in its
checker.  All checkers raise :class:`~repro.errors.ValidationError`
with a precise description, or return quietly.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import ValidationError
from ..graph.forests import RootedForest, color_classes, is_star_forest
from ..graph.multigraph import MultiGraph
from ..graph.union_find import UnionFind

Coloring = Dict[int, object]
Palette = Dict[int, Sequence[int]]


def check_forest_decomposition(
    graph: MultiGraph,
    coloring: Coloring,
    max_colors: Optional[int] = None,
    partial: bool = False,
) -> int:
    """Validate a (partial) forest decomposition; return #colors used.

    * every colored edge id must exist in the graph;
    * unless ``partial``, every edge must be colored;
    * each color class must be acyclic (parallel edges included);
    * with ``max_colors``, the number of distinct colors is capped.
    """
    edge_ids = set(graph.edge_ids())
    for eid in coloring:
        if eid not in edge_ids:
            raise ValidationError(f"coloring mentions unknown edge {eid}")
    if not partial:
        uncolored = [
            eid for eid in edge_ids
            if coloring.get(eid) is None
        ]
        if uncolored:
            raise ValidationError(
                f"{len(uncolored)} edges uncolored (e.g. {uncolored[:5]})"
            )
    classes = color_classes(coloring)
    for color, eids in classes.items():
        uf = UnionFind()
        for eid in eids:
            u, v = graph.endpoints(eid)
            if not uf.union(u, v):
                raise ValidationError(
                    f"color {color!r} contains a cycle through edge {eid}"
                )
    if max_colors is not None and len(classes) > max_colors:
        raise ValidationError(
            f"{len(classes)} colors used, cap is {max_colors}"
        )
    return len(classes)


def check_star_forest_decomposition(
    graph: MultiGraph,
    coloring: Coloring,
    max_colors: Optional[int] = None,
    partial: bool = False,
) -> int:
    """Validate a (partial) star-forest decomposition; return #colors."""
    count = check_forest_decomposition(graph, coloring, max_colors, partial)
    for color, eids in color_classes(coloring).items():
        if not is_star_forest(graph, eids):
            raise ValidationError(f"color {color!r} is not a star forest")
    return count


def check_palettes_respected(coloring: Coloring, palettes: Palette) -> None:
    """Every colored edge's color must come from its palette."""
    for eid, color in coloring.items():
        if color is None:
            continue
        if color not in palettes[eid]:
            raise ValidationError(
                f"edge {eid} colored {color!r}, not in its palette"
            )


def forest_diameter_of_coloring(graph: MultiGraph, coloring: Coloring) -> int:
    """Largest strong tree diameter over all color classes."""
    worst = 0
    for _color, eids in color_classes(coloring).items():
        forest = RootedForest(graph, eids)
        worst = max(worst, forest.max_strong_diameter())
    return worst


def check_forest_diameter(
    graph: MultiGraph, coloring: Coloring, max_diameter: int
) -> int:
    """Validate every monochromatic tree has strong diameter <= cap."""
    worst = forest_diameter_of_coloring(graph, coloring)
    if worst > max_diameter:
        raise ValidationError(
            f"forest diameter {worst} exceeds cap {max_diameter}"
        )
    return worst


def check_network_decomposition(
    graph: MultiGraph,
    classes: Sequence[Sequence[Sequence[int]]],
    max_diameter: Optional[int] = None,
    max_classes: Optional[int] = None,
) -> Tuple[int, int]:
    """Validate a (D, χ)-network decomposition; return ``(D, χ)``.

    ``classes`` is a list of color classes, each a list of clusters
    (vertex lists), as produced by
    :func:`repro.decomposition.network_decomposition`.  Re-derives
    every guarantee from scratch (plain BFS over the dict adjacency —
    none of the carve kernels):

    * the clusters partition the vertex set exactly;
    * every cluster is connected with **strong** diameter (measured
      inside the cluster's induced subgraph) at most ``max_diameter``;
    * two clusters of the same class share no edge;
    * with ``max_classes``, the number of classes is capped.
    """
    seen: Set[int] = set()
    for clusters in classes:
        for cluster in clusters:
            for v in cluster:
                if v in seen:
                    raise ValidationError(
                        f"vertex {v} appears in more than one cluster"
                    )
                seen.add(v)
    vertices = set(graph.vertices())
    missing = vertices - seen
    if missing:
        raise ValidationError(
            f"{len(missing)} vertices unclustered "
            f"(e.g. {sorted(missing)[:5]})"
        )
    extra = seen - vertices
    if extra:
        raise ValidationError(
            f"clusters mention unknown vertices (e.g. {sorted(extra)[:5]})"
        )

    worst_diameter = 0
    for index, clusters in enumerate(classes):
        cluster_of: Dict[int, int] = {}
        for cid, cluster in enumerate(clusters):
            members = set(cluster)
            for v in cluster:
                cluster_of[v] = cid
            worst_diameter = max(
                worst_diameter, _strong_diameter(graph, members)
            )
        for v, cid in cluster_of.items():
            for other in graph.neighbors(v):
                if cluster_of.get(other, cid) != cid:
                    raise ValidationError(
                        f"class {index}: edge {v}-{other} joins two of "
                        f"its clusters"
                    )
    if max_diameter is not None and worst_diameter > max_diameter:
        raise ValidationError(
            f"cluster strong diameter {worst_diameter} exceeds cap "
            f"{max_diameter}"
        )
    if max_classes is not None and len(classes) > max_classes:
        raise ValidationError(
            f"{len(classes)} classes used, cap is {max_classes}"
        )
    return worst_diameter, len(classes)


def _strong_diameter(graph: MultiGraph, members: Set[int]) -> int:
    """Exact strong diameter of the subgraph induced on ``members``
    (max over BFS eccentricities); raises if it is disconnected."""
    if not members:
        return 0
    worst = 0
    for source in members:
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for other in graph.neighbors(v):
                    if other in members and other not in dist:
                        dist[other] = dist[v] + 1
                        nxt.append(other)
            frontier = nxt
        if len(dist) != len(members):
            missing = next(iter(members - dist.keys()))
            raise ValidationError(
                f"cluster containing {source} is disconnected "
                f"({missing} unreachable inside it)"
            )
        worst = max(worst, max(dist.values()))
    return worst


def check_orientation(
    graph: MultiGraph,
    orientation: Dict[int, int],
    max_out_degree: int,
    require_acyclic: bool = False,
) -> int:
    """Validate an edge orientation; return the max out-degree observed."""
    if set(orientation.keys()) != set(graph.edge_ids()):
        raise ValidationError("orientation does not cover all edges exactly")
    out_degree: Dict[int, int] = {v: 0 for v in graph.vertices()}
    for eid, tail in orientation.items():
        u, v = graph.endpoints(eid)
        if tail not in (u, v):
            raise ValidationError(f"edge {eid}: tail {tail} not an endpoint")
        out_degree[tail] += 1
    worst = max(out_degree.values(), default=0)
    if worst > max_out_degree:
        offender = max(out_degree, key=lambda v: out_degree[v])
        raise ValidationError(
            f"vertex {offender} has out-degree {worst} > {max_out_degree}"
        )
    if require_acyclic:
        _check_acyclic(graph, orientation)
    return worst


def _check_acyclic(graph: MultiGraph, orientation: Dict[int, int]) -> None:
    """Kahn's algorithm on the directed graph induced by the orientation."""
    successors: Dict[int, List[int]] = {v: [] for v in graph.vertices()}
    indegree: Dict[int, int] = {v: 0 for v in graph.vertices()}
    for eid, tail in orientation.items():
        head = graph.other_endpoint(eid, tail)
        successors[tail].append(head)
        indegree[head] += 1
    queue = [v for v, d in indegree.items() if d == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in successors[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    if seen != graph.n:
        raise ValidationError("orientation contains a directed cycle")


def check_hpartition(
    graph: MultiGraph, classes: Dict[int, int], threshold: int
) -> int:
    """Theorem 2.1(1): each v in H_i has <= threshold neighbors in
    H_i u ... u H_k.  Returns the number of classes."""
    if set(classes.keys()) != set(graph.vertices()):
        raise ValidationError("H-partition does not cover all vertices")
    for v in graph.vertices():
        later = sum(
            1 for _eid, other in graph.incident(v) if classes[other] >= classes[v]
        )
        if later > threshold:
            raise ValidationError(
                f"vertex {v} (class {classes[v]}) has {later} same-or-later "
                f"neighbors > threshold {threshold}"
            )
    return max(classes.values(), default=0)


def check_vertex_coloring_proper(
    graph: MultiGraph, colors: Dict[int, int], eids: Iterable[int]
) -> None:
    """No edge among ``eids`` may be monochromatic."""
    for eid in eids:
        u, v = graph.endpoints(eid)
        if colors[u] == colors[v]:
            raise ValidationError(f"edge {eid} ({u}-{v}) is monochromatic")


def pseudoarboricity_upper_bound_check(
    graph: MultiGraph, eids: Sequence[int], bound: int
) -> None:
    """Check the subgraph on ``eids`` has pseudoarboricity <= bound.

    By Hakimi's theorem that holds exactly when every edge can be
    assigned to one of its endpoints with at most ``bound`` edges per
    vertex.  The assignment is grown one edge at a time; an edge whose
    endpoints are both full searches (BFS) for a chain of reassignments
    ending at a vertex with room.  Every earlier edge is assigned, so
    by Berge's lemma an edge that finds no such chain proves that no
    assignment covers them all.
    """
    owned: Dict[int, List[int]] = {}  # vertex -> edges assigned to it
    for eid in dict.fromkeys(eids):
        u, v = graph.endpoints(eid)
        # came_from[y] = (edge f, vertex x): f moves from x to y.
        came_from: Dict[int, Optional[Tuple[int, int]]] = {u: None, v: None}
        queue = deque(came_from)
        free = None
        while queue:
            x = queue.popleft()
            if len(owned.get(x, ())) < bound:
                free = x
                break
            for f in owned.get(x, ()):
                y = graph.other_endpoint(f, x)
                if y not in came_from:
                    came_from[y] = (f, x)
                    queue.append(y)
        if free is None:
            raise ValidationError(
                f"leftover subgraph ({len(eids)} edges) has pseudoarboricity "
                f"greater than {bound}"
            )
        step = came_from[free]
        while step is not None:
            f, x = step
            owned[x].remove(f)
            owned.setdefault(free, []).append(f)
            free, step = x, came_from[x]
        owned.setdefault(free, []).append(eid)


def is_pseudoforest(graph: MultiGraph, eids: Sequence[int]) -> bool:
    """True if every connected component of ``eids`` has at most one
    cycle (equivalently: at most as many edges as vertices)."""
    uf = UnionFind()
    has_cycle: Dict[object, bool] = {}
    for eid in eids:
        u, v = graph.endpoints(eid)
        ru, rv = uf.find(u), uf.find(v)
        if ru == rv:
            if has_cycle.get(ru, False):
                return False  # second cycle in the same component
            has_cycle[ru] = True
        else:
            merged_cycle = has_cycle.get(ru, False) or has_cycle.get(rv, False)
            uf.union(u, v)
            root = uf.find(u)
            has_cycle[root] = merged_cycle
    return True


def check_pseudoforest_decomposition(
    graph: MultiGraph,
    coloring: Coloring,
    max_colors: Optional[int] = None,
) -> int:
    """Validate a pseudoforest decomposition; return #colors used."""
    edge_ids = set(graph.edge_ids())
    for eid in coloring:
        if eid not in edge_ids:
            raise ValidationError(f"coloring mentions unknown edge {eid}")
    uncolored = [eid for eid in edge_ids if coloring.get(eid) is None]
    if uncolored:
        raise ValidationError(f"{len(uncolored)} edges uncolored")
    classes = color_classes(coloring)
    for color, eids in classes.items():
        if not is_pseudoforest(graph, eids):
            raise ValidationError(f"color {color!r} is not a pseudoforest")
    if max_colors is not None and len(classes) > max_colors:
        raise ValidationError(f"{len(classes)} colors used, cap is {max_colors}")
    return len(classes)


def count_colors(coloring: Coloring) -> int:
    """Number of distinct colors among colored edges."""
    return len({c for c in coloring.values() if c is not None})


def summarize_decomposition(
    graph: MultiGraph,
    coloring: Coloring,
    kind: str = "forest",
) -> str:
    """Human-readable validity + statistics report for a decomposition.

    ``kind`` is ``"forest"``, ``"star"`` or ``"pseudoforest"`` and
    selects the validity check.  Used by the ``python -m repro`` CLI's
    ``--report`` flag and handy in notebooks.
    """
    if kind == "forest":
        colors = check_forest_decomposition(graph, coloring)
    elif kind == "star":
        colors = check_star_forest_decomposition(graph, coloring)
    elif kind == "pseudoforest":
        colors = check_pseudoforest_decomposition(graph, coloring)
    else:
        raise ValidationError(f"unknown decomposition kind {kind!r}")

    classes = color_classes(coloring)
    sizes = sorted((len(eids) for eids in classes.values()), reverse=True)
    lines = [
        f"valid {kind} decomposition",
        f"  edges: {graph.m}  vertices: {graph.n}",
        f"  colors used: {colors}",
        f"  class sizes: max={sizes[0] if sizes else 0} "
        f"min={sizes[-1] if sizes else 0} "
        f"mean={sum(sizes) / len(sizes):.1f}" if sizes else "  class sizes: -",
    ]
    if kind in ("forest", "star"):
        lines.append(
            f"  max tree diameter: {forest_diameter_of_coloring(graph, coloring)}"
        )
    return "\n".join(lines)


def monochromatic_components_within(
    graph: MultiGraph,
    coloring: Coloring,
    color: object,
) -> List[List[int]]:
    """Vertex sets of the trees of one color class (diagnostics)."""
    from ..graph.forests import forest_components

    eids = [e for e, c in coloring.items() if c == color]
    return forest_components(graph, eids)
