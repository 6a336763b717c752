"""Exact arboricity and Nash-Williams density.

``exact_arboricity`` returns the minimum number of forests α.  It
first pins α between two bounds that cost one degeneracy peel and a few
array passes on the graph's CSR snapshot:

* the lower bound ``L`` is the larger of the pseudoarboricity ``p`` (a
  forest is a pseudoforest) and the largest ``⌈m_C/(n_C−1)⌉`` over the
  connected components ``C`` with ``n_C ≥ 2`` (Nash-Williams' formula
  on ``H = C``);
* the upper bound ``U`` is the degeneracy ``d`` (the peel orientation
  is acyclic with out-degree ≤ ``d``, so ranking each vertex's
  out-edges gives ``d`` forests).  On simple graphs ``U = min(d, p+1)``:
  every subgraph ``H`` there has ``|E(H)| ≤ p|V(H)|`` and
  ``|E(H)| ≤ |V(H)|(|V(H)|−1)/2``, which together give
  ``|E(H)| ≤ (p+1)(|V(H)|−1)``.  The rule needs simplicity: ``2p``
  parallel edges between two vertices have pseudoarboricity ``p`` and
  α = ``2p``.

When ``L == U`` that is α, in O(m) array work plus the peel.  Otherwise
the matroid-partition algorithm decides it.
``exact_forest_decomposition`` (the witness) always runs the matroid.

``nash_williams_density_exact`` checks the Nash-Williams formula

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

import numpy as np

from ..errors import GraphError
from ..graph.csr import CSRGraph, snapshot_of
from ..graph.multigraph import MultiGraph
from .matroid_partition import exact_forest_partition
from .pseudoarboricity import _pseudoarboricity_and_degeneracy


def exact_arboricity(graph: MultiGraph) -> int:
    """The exact arboricity α(G) (0 for edgeless graphs): the bound
    sandwich when it closes, else the matroid partition."""
    snapshot = snapshot_of(graph)
    if snapshot.num_edges == 0:
        return 0
    pseudo, degeneracy = _pseudoarboricity_and_degeneracy(snapshot)
    lower = max(pseudo, _component_density_bound(snapshot))
    upper = degeneracy
    if snapshot.is_simple():
        upper = min(upper, pseudo + 1)
    if lower == upper:
        return lower
    return exact_forest_partition(graph).num_forests


def _component_density_bound(snapshot: CSRGraph) -> int:
    """The largest ``⌈m_C/(n_C−1)⌉`` over components with an edge."""
    labels = snapshot.component_labels()
    n_c = np.bincount(labels, minlength=snapshot.num_vertices)
    m_c = np.bincount(labels[snapshot.edge_u], minlength=snapshot.num_vertices)
    has_edge = m_c > 0
    return int((-(-m_c[has_edge] // (n_c[has_edge] - 1))).max())


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
