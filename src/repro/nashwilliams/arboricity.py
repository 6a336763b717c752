"""Exact arboricity and Nash-Williams density.

``exact_arboricity`` runs the matroid-partition algorithm and returns
the minimum number of forests.  ``nash_williams_density_exact`` checks
the Nash-Williams formula

    α(G) = max over subgraphs H, |V(H)| >= 2, of ⌈|E(H)| / (|V(H)|-1)⌉

by brute-force subset enumeration — exponential, so only for tiny
graphs; it exists to cross-validate the matroid algorithm in tests.
``densest_induced_density`` gives the (fractional) maximum of
|E(H)|/(|V(H)|-1) for reporting.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict

from ..errors import GraphError
from ..graph.multigraph import MultiGraph
from .matroid_partition import exact_forest_partition


def exact_arboricity(graph: MultiGraph) -> int:
    """The exact arboricity α(G) (0 for edgeless graphs)."""
    return exact_forest_partition(graph).num_forests


def exact_forest_decomposition(graph: MultiGraph) -> Dict[int, int]:
    """An exact α(G)-forest decomposition as edge id -> forest index."""
    return exact_forest_partition(graph).coloring


def nash_williams_density_exact(graph: MultiGraph, max_n: int = 14) -> int:
    """Brute-force Nash-Williams bound (exponential; tiny graphs only).

    Enumerates all vertex subsets of size >= 2 and returns
    ``max ⌈|E(H)|/(|V(H)|-1)⌉`` over induced subgraphs H.
    """
    n = graph.n
    if n > max_n:
        raise GraphError(
            f"brute-force Nash-Williams density limited to n <= {max_n}, got {n}"
        )
    if graph.m == 0:
        return 0
    vertices = graph.vertices()
    edge_list = [(u, v) for _eid, u, v in graph.edges()]
    best = 0
    for size in range(2, n + 1):
        for subset in itertools.combinations(vertices, size):
            inside = set(subset)
            count = sum(1 for u, v in edge_list if u in inside and v in inside)
            if count:
                best = max(best, math.ceil(count / (size - 1)))
    return best


def densest_induced_density(graph: MultiGraph, max_n: int = 14) -> Fraction:
    """Exact max of |E(H)|/(|V(H)|-1) as a Fraction (tiny graphs only)."""
    n = graph.n
    if n > max_n:
        raise GraphError(
            f"brute-force density limited to n <= {max_n}, got {n}"
        )
    vertices = graph.vertices()
    edge_list = [(u, v) for _eid, u, v in graph.edges()]
    best = Fraction(0)
    for size in range(2, n + 1):
        for subset in itertools.combinations(vertices, size):
            inside = set(subset)
            count = sum(1 for u, v in edge_list if u in inside and v in inside)
            best = max(best, Fraction(count, size - 1))
    return best


def whole_graph_density_lower_bound(graph: MultiGraph) -> int:
    """⌈m/(n-1)⌉ — the trivial Nash-Williams lower bound on α."""
    if graph.n < 2 or graph.m == 0:
        return 0
    return math.ceil(graph.m / (graph.n - 1))
