"""Forest-diameter reduction (Proposition 2.4 / Corollary 2.5).

Given a (list-)forest decomposition φ, delete a sparse set of edges so
that every surviving monochromatic tree has small strong diameter, then
recolor the deleted edges with ``O(εα)`` fresh forests.  Two deletion
modes mirror the two cases of Proposition 2.4:

* ``depth_cut(z)``: root every tree of every color class and delete
  each edge whose depth is congruent to a per-color random residue
  mod ``z``.  Surviving chains span fewer than ``z`` depth levels, so
  tree diameter is at most ``2(z-1) = O(z)``.  Each vertex loses each
  parent edge with probability ``1/z``, so the expected per-vertex
  deletion load is ``(#colors)/z`` — the paper's two regimes are
  ``z = Θ(1/ε)`` (diameter O(1/ε), needs α ≥ Ω(log n) or the LLL for
  the load bound) and ``z = Θ(log n/ε)`` (diameter O(log n/ε), load
  εα/Θ(log n) per color class in expectation).

* ``random_sparse``: the unbounded-α case — every vertex flips a coin
  and deletes ⌈εα/20⌉ random out-edges of a 3α*-orientation, then a
  correction pass depth-cuts any tree whose diameter still exceeds the
  target.  (Theorem B's analysis shows the correction is vanishingly
  rare at scale; we execute it deterministically so the output bound
  always holds.)

The deleted edges are returned with a child-to-parent orientation whose
max out-degree certifies their pseudo-arboricity.

``depth_cut`` roots all color classes in one stacked kernel call
(:func:`~repro.graph.csr.rooted_forest_class_depths`), with the root
selection and depths of :class:`~repro.graph.forests.RootedForest`.
The test suite's reference (``tests/reference/diameter_reduction.py``)
roots each class with ``RootedForest`` instead; tree depths are
unique, so both cut the same edges.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set

import numpy as np

from ..errors import DecompositionError
from ..graph.csr import rooted_forest_class_depths, snapshot_of
from ..graph.forests import RootedForest, color_classes
from ..graph.multigraph import MultiGraph
from ..local.rounds import RoundCounter, ensure_counter
from ..rng import SeedLike, make_rng

Coloring = Dict[int, int]


class DiameterReductionResult:
    """Outcome of a diameter-reduction pass."""

    def __init__(
        self,
        kept: Coloring,
        deleted: List[int],
        deletion_tail: Dict[int, int],
        target_diameter: int,
    ) -> None:
        self.kept = kept  # surviving edges with their original colors
        self.deleted = deleted  # edge ids removed
        self.deletion_tail = deletion_tail  # edge id -> charged vertex
        self.target_diameter = target_diameter

    def max_deletion_out_degree(self) -> int:
        counts: Dict[int, int] = {}
        for _eid, tail in self.deletion_tail.items():
            counts[tail] = counts.get(tail, 0) + 1
        return max(counts.values(), default=0)


def depth_cut(
    graph: MultiGraph,
    coloring: Coloring,
    z: int,
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
) -> DiameterReductionResult:
    """Cut every color forest at a random depth residue mod ``z``.

    The result's trees have strong diameter at most ``2(z-1)``.  One
    residue is drawn per color class in sorted color order (rooting
    consumes no randomness).
    """
    if z < 1:
        raise DecompositionError(f"z must be >= 1, got {z}")
    counter = ensure_counter(rounds)
    rng = make_rng(seed)
    classes = sorted(color_classes(coloring).items())
    kept: Coloring = {}
    deleted: List[int] = []
    deletion_tail: Dict[int, int] = {}
    snap = snapshot_of(graph)
    per_class, _waves = rooted_forest_class_depths(
        snap, [snap.edge_positions(eids) for _color, eids in classes]
    )
    for (color, eids), (du, dv, child_ids) in zip(classes, per_class):
        residue = rng.randrange(z)
        # The child endpoint of a forest edge is the deeper one
        # (depths differ by exactly 1); cutting the parent edges of
        # vertices at depth ≡ residue (mod z) is cutting the edges
        # whose child depth hits the residue.
        is_cut = (np.maximum(du, dv) % z) == residue
        for eid, cut, child in zip(
            eids, is_cut.tolist(), child_ids.tolist()
        ):
            if cut:
                deleted.append(eid)
                deletion_tail[eid] = int(child)
            else:
                kept[eid] = color
    # Rooting + cutting is O(z) rounds distributed (depth mod z is known
    # within z hops of the root segment); we charge the target diameter.
    counter.charge(2 * z, "depth-cut diameter reduction")
    return DiameterReductionResult(kept, deleted, deletion_tail, 2 * (z - 1))


def random_sparse_cut(
    graph: MultiGraph,
    coloring: Coloring,
    epsilon: float,
    alpha: int,
    orientation: Dict[int, int],
    target_diameter: int,
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
) -> DiameterReductionResult:
    """Proposition 2.4, unbounded-α case: random out-edge deletion with a
    deterministic correction pass.

    ``orientation`` must be an acyclic O(α*)-orientation of the colored
    edges (Theorem 2.1(2)); ``target_diameter`` is the bound the caller
    wants (Θ(log n / ε) in the paper).
    """
    counter = ensure_counter(rounds)
    rng = make_rng(seed)
    quota = max(1, math.ceil(epsilon * alpha / 20.0))

    out_edges: Dict[int, List[int]] = {}
    for eid in coloring:
        out_edges.setdefault(orientation[eid], []).append(eid)

    deleted_set: Set[int] = set()
    deletion_tail: Dict[int, int] = {}
    for vertex in sorted(out_edges):
        if rng.random() < 0.5:
            candidates = sorted(out_edges[vertex])
            rng.shuffle(candidates)
            for eid in candidates[:quota]:
                deleted_set.add(eid)
                deletion_tail[eid] = vertex
    counter.charge(1, "random deletion round")

    # Correction: depth-cut any color class whose trees are still deep.
    z = max(1, target_diameter // 2)
    survivors = {e: c for e, c in coloring.items() if e not in deleted_set}
    for color, eids in sorted(color_classes(survivors).items()):
        forest = RootedForest(graph, eids)
        if forest.max_strong_diameter() <= target_diameter:
            continue
        residue = rng.randrange(z)
        for eid in forest.edges_at_depth_residue(residue, z):
            u, v = graph.endpoints(eid)
            child = u if forest.depth[u] > forest.depth[v] else v
            deleted_set.add(eid)
            deletion_tail[eid] = child
    counter.charge(2 * z, "correction pass")

    kept = {e: c for e, c in coloring.items() if e not in deleted_set}
    return DiameterReductionResult(
        kept, sorted(deleted_set), deletion_tail, target_diameter
    )


def reduce_diameter(
    graph: MultiGraph,
    coloring: Coloring,
    epsilon: float,
    alpha: int,
    mode: str = "auto",
    seed: SeedLike = None,
    rounds: Optional[RoundCounter] = None,
) -> DiameterReductionResult:
    """Corollary 2.5 front-end: pick ``z`` by regime.

    * ``mode="strong"``: ``z = ⌈20/ε⌉`` — diameter O(1/ε); the load
      bound needs α ≥ Ω(min(log n/ε, log Δ/ε²)), as in the paper.
    * ``mode="safe"``: ``z = ⌈20 log₂(n)/ε⌉`` — diameter O(log n/ε)
      with per-vertex load ~ εα/20 in expectation at any α.
    * ``mode="auto"``: strong when α ≥ log₂ n, else safe.

    """
    n = max(graph.n, 2)
    if mode == "auto":
        mode = "strong" if alpha >= math.log2(n) else "safe"
    if mode == "strong":
        z = max(2, math.ceil(20.0 / epsilon))
    elif mode == "safe":
        z = max(2, math.ceil(20.0 * math.log2(n) / epsilon))
    else:
        raise DecompositionError(f"unknown diameter-reduction mode {mode!r}")
    return depth_cut(graph, coloring, z, seed=seed, rounds=rounds)
