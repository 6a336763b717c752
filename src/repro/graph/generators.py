"""Workload generators for tests, examples and benchmarks.

Most benches need graphs whose arboricity is *known by construction*:

* :func:`union_of_random_forests` — union of ``k`` random spanning
  forests, so ``α ≤ k`` (and, at full density, typically exactly ``k``).
* :func:`line_multigraph` — the Proposition C.1 lower-bound instance:
  ``ℓ`` vertices on a line with ``α`` parallel edges between neighbors.
* :func:`complete_graph` — ``α(K_n) = ⌈n/2⌉``.
* standard families (grid, ER, random regular, preferential attachment,
  random bipartite) for realism.

All generators take an explicit seed and return :class:`MultiGraph`.
Palette helpers attach per-edge color lists for the list-coloring
variants (k-LFD / k-LSFD).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Set, Tuple

from ..errors import GraphError
from ..rng import SeedLike, make_rng
from .multigraph import MultiGraph

Palette = Dict[int, List[int]]


def empty_graph(n: int) -> MultiGraph:
    """``n`` isolated vertices."""
    return MultiGraph.with_vertices(n)


def path_graph(n: int) -> MultiGraph:
    """Simple path on ``n`` vertices; arboricity 1."""
    return MultiGraph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> MultiGraph:
    """Simple cycle on ``n >= 3`` vertices; arboricity 2 (pseudo 1)."""
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    pairs = [(i, (i + 1) % n) for i in range(n)]
    return MultiGraph.from_edges(n, pairs)


def star_graph(n: int) -> MultiGraph:
    """Star with center 0 and ``n - 1`` leaves; arboricity 1."""
    return MultiGraph.from_edges(n, ((0, i) for i in range(1, n)))


def complete_graph(n: int) -> MultiGraph:
    """``K_n``; arboricity ``⌈n/2⌉``."""
    return MultiGraph.from_edges(n, itertools.combinations(range(n), 2))


def grid_graph(rows: int, cols: int) -> MultiGraph:
    """2D grid; arboricity 2 for non-degenerate sizes."""
    graph = MultiGraph.with_vertices(rows * cols)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                graph.add_edge(v, v + 1)
            if r + 1 < rows:
                graph.add_edge(v, v + cols)
    return graph


def random_spanning_forest_edges(
    n: int, rng, density: float = 1.0
) -> List[Tuple[int, int]]:
    """Edges of a uniform-ish random spanning forest of ``K_n``.

    Built by a random-order incremental union-find pass over a random
    vertex permutation (random attachment), then thinned to ``density``.
    """
    order = list(range(n))
    rng.shuffle(order)
    edges: List[Tuple[int, int]] = []
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((order[i], order[j]))
    if density < 1.0:
        edges = [e for e in edges if rng.random() < density]
    return edges


def union_of_random_forests(
    n: int,
    k: int,
    seed: SeedLike = None,
    density: float = 1.0,
    simple: bool = False,
) -> MultiGraph:
    """Union of ``k`` random spanning forests on ``n`` vertices.

    Arboricity is at most ``k`` by construction.  With ``density=1.0``
    the graph has ``k(n-1)`` edges so its Nash-Williams density is
    exactly ``k`` and hence ``α = k``.  With ``simple=True`` duplicate
    pairs are redirected (best effort), keeping the graph simple at a
    small cost in edge count for tiny ``n``.
    """
    rng = make_rng(seed)
    graph = MultiGraph.with_vertices(n)
    present: Set[Tuple[int, int]] = set()
    for _ in range(k):
        for u, v in random_spanning_forest_edges(n, rng, density):
            if simple:
                key = (min(u, v), max(u, v))
                if key in present:
                    # Retry a few times with a random pair to keep m high.
                    placed = False
                    for _attempt in range(8):
                        a = rng.randrange(n)
                        b = rng.randrange(n)
                        key2 = (min(a, b), max(a, b))
                        if a != b and key2 not in present:
                            present.add(key2)
                            graph.add_edge(a, b)
                            placed = True
                            break
                    if not placed:
                        continue
                else:
                    present.add(key)
                    graph.add_edge(u, v)
            else:
                graph.add_edge(u, v)
    return graph


def line_multigraph(length: int, multiplicity: int) -> MultiGraph:
    """The Proposition C.1 instance: a path of ``length`` vertices with
    ``multiplicity`` parallel edges between consecutive vertices.

    Arboricity equals ``multiplicity`` and any ``(1+ε)α``-FD of it has
    forest diameter ``Ω(1/ε)``.
    """
    if length < 2:
        raise GraphError("line multigraph needs at least 2 vertices")
    if multiplicity < 1:
        raise GraphError("multiplicity must be >= 1")
    graph = MultiGraph.with_vertices(length)
    for i in range(length - 1):
        for _ in range(multiplicity):
            graph.add_edge(i, i + 1)
    return graph


def erdos_renyi(n: int, p: float, seed: SeedLike = None) -> MultiGraph:
    """Simple G(n, p) random graph."""
    rng = make_rng(seed)
    graph = MultiGraph.with_vertices(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


def random_regular_multigraph(n: int, d: int, seed: SeedLike = None) -> MultiGraph:
    """Configuration-model random ``d``-regular multigraph (self-loops
    re-drawn; parallel edges kept — this is a multigraph generator)."""
    if (n * d) % 2 != 0:
        raise GraphError("n * d must be even for a d-regular graph")
    rng = make_rng(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _attempt in range(200):
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if all(u != v for u, v in pairs):
            return MultiGraph.from_edges(n, pairs)
    # Fall back: re-draw loop pairs individually.
    graph = MultiGraph.with_vertices(n)
    leftover: List[int] = []
    for u, v in pairs:
        if u != v:
            graph.add_edge(u, v)
        else:
            leftover.extend((u, v))
    for i in range(0, len(leftover) - 1, 2):
        u, v = leftover[i], leftover[i + 1]
        if u != v:
            graph.add_edge(u, v)
    return graph


def preferential_attachment(n: int, out_degree: int, seed: SeedLike = None) -> MultiGraph:
    """Barabási–Albert-style simple graph: each new vertex attaches to
    ``out_degree`` existing vertices chosen by degree-proportional
    sampling.  Arboricity is at most ``out_degree`` by construction
    (each vertex contributes at most ``out_degree`` edges when added)."""
    if out_degree < 1:
        raise GraphError("out_degree must be >= 1")
    rng = make_rng(seed)
    graph = MultiGraph.with_vertices(n)
    targets: List[int] = []  # degree-weighted urn
    start = min(out_degree + 1, n)
    for v in range(1, start):
        u = rng.randrange(v)
        graph.add_edge(v, u)
        targets.extend((v, u))
    for v in range(start, n):
        chosen: Set[int] = set()
        while len(chosen) < out_degree:
            pick = rng.choice(targets) if targets else rng.randrange(v)
            if pick != v:
                chosen.add(pick)
        # repro: allow(det-set-order) — int-only target set: iteration order
        # is hash-seed-independent and fixed by the rng draw sequence; the
        # resulting edge-id order is frozen into every preferential-graph
        # golden and corpus seed (sorting would silently regen them all).
        for u in chosen:
            graph.add_edge(v, u)
            targets.extend((v, u))
    return graph


def random_bipartite(
    n_left: int, n_right: int, p: float, seed: SeedLike = None
) -> MultiGraph:
    """Simple random bipartite graph; left vertices are 0..n_left-1."""
    rng = make_rng(seed)
    graph = MultiGraph.with_vertices(n_left + n_right)
    for u in range(n_left):
        for v in range(n_left, n_left + n_right):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


def add_parallel_copies(graph: MultiGraph, copies: int) -> MultiGraph:
    """Multigraph with every edge duplicated ``copies`` times (α scales)."""
    if copies < 1:
        raise GraphError("copies must be >= 1")
    out = MultiGraph.with_vertices(0)
    for vertex in graph.vertices():
        out.add_vertex(vertex)
    for _eid, u, v in graph.edges():
        for _ in range(copies):
            out.add_edge(u, v)
    return out


def wheel_graph(n: int) -> MultiGraph:
    """Wheel: hub 0 joined to an (n-1)-cycle; arboricity 2 for n >= 4."""
    if n < 4:
        raise GraphError("wheel needs at least 4 vertices")
    graph = MultiGraph.with_vertices(n)
    rim = list(range(1, n))
    for i, v in enumerate(rim):
        graph.add_edge(0, v)
        graph.add_edge(v, rim[(i + 1) % len(rim)])
    return graph


def caterpillar(spine: int, legs_per_vertex: int) -> MultiGraph:
    """Caterpillar tree: a spine path with ``legs_per_vertex`` leaves
    hanging off each spine vertex; arboricity 1, large max degree."""
    if spine < 1:
        raise GraphError("caterpillar needs at least 1 spine vertex")
    graph = MultiGraph.with_vertices(spine)
    for i in range(spine - 1):
        graph.add_edge(i, i + 1)
    for i in range(spine):
        for _ in range(legs_per_vertex):
            leaf = graph.add_vertex()
            graph.add_edge(i, leaf)
    return graph


# ----------------------------------------------------------------------
# Palettes for list-coloring variants
# ----------------------------------------------------------------------


def uniform_palette(graph: MultiGraph, colors: Sequence[int]) -> Palette:
    """Every edge gets the same palette (ordinary coloring as a list problem)."""
    colors = list(colors)
    return {eid: list(colors) for eid in graph.edge_ids()}


def random_palettes(
    graph: MultiGraph,
    palette_size: int,
    color_space: int,
    seed: SeedLike = None,
) -> Palette:
    """Each edge independently gets a uniform ``palette_size``-subset of
    ``{0, .., color_space-1}``."""
    if palette_size > color_space:
        raise GraphError("palette size exceeds color space")
    rng = make_rng(seed)
    space = list(range(color_space))
    return {
        eid: sorted(rng.sample(space, palette_size)) for eid in graph.edge_ids()
    }


def skewed_palettes(
    graph: MultiGraph,
    palette_size: int,
    color_space: int,
    hot_fraction: float = 0.5,
    seed: SeedLike = None,
) -> Palette:
    """Adversarially overlapping palettes: a ``hot_fraction`` of each
    palette comes from a small 'hot' prefix of the color space, creating
    contention; the rest is uniform.  Stresses list-coloring paths."""
    rng = make_rng(seed)
    hot_count = max(1, int(palette_size * hot_fraction))
    hot_pool = list(range(min(color_space, 2 * hot_count)))
    cold_pool = list(range(color_space))
    palettes: Palette = {}
    for eid in graph.edge_ids():
        chosen: Set[int] = set(rng.sample(hot_pool, min(hot_count, len(hot_pool))))
        while len(chosen) < palette_size:
            chosen.add(rng.choice(cold_pool))
        palettes[eid] = sorted(chosen)
    return palettes
