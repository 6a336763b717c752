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

Backends: ``depth_cut`` / ``reduce_diameter`` accept the shared
``backend`` knob.  The dict path (default for direct callers) roots
every color class with :class:`~repro.graph.forests.RootedForest`; the
kernel path roots large classes on flat arrays
(:func:`~repro.graph.csr.rooted_forest_arrays` — identical root
selection and depths, one vectorized multi-source BFS per class) and
the parallel path additionally fans each BFS level through the shared
:class:`~repro.parallel.engine.WaveEngine`.  Small color classes stay
on the dict path under any kernel backend (the array extraction costs
more than the walk there); every path produces byte-identical cuts
because tree depths are unique.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import DecompositionError
from ..graph.csr import (
    resolve_backend,
    rooted_forest_arrays,
    rooted_forest_class_depths,
    snapshot_of,
)
from ..graph.forests import RootedForest, color_classes
from ..graph.multigraph import MultiGraph
from ..local.rounds import RoundCounter, ensure_counter
from ..parallel.engine import engine_for
from ..rng import SeedLike, make_rng

Coloring = Dict[int, int]

#: color classes below this edge count keep the dict rooting — the
#: sub-CSR extraction costs more than the walk (outputs identical).
DEPTH_CUT_ARRAYS_MIN_EDGES = 64


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
    backend: str = "dict",
    workers: int = 0,
    schedule: str = "serial",
) -> DiameterReductionResult:
    """Cut every color forest at a random depth residue mod ``z``.

    The result's trees have strong diameter at most ``2(z-1)``.  Every
    backend produces the same cuts (see the module docstring); the
    default stays on the dict reference path, the pipelines pass their
    own backend through.

    ``schedule="concurrent"`` (from the pass scheduler) roots *all*
    array-eligible color classes in one stacked
    :func:`~repro.graph.csr.rooted_forest_class_depths` call instead of
    a per-class union-find + BFS — identical roots, depths and cuts,
    with the per-class residue draws kept in the same sorted-color
    order (rooting consumes no randomness).
    """
    if z < 1:
        raise DecompositionError(f"z must be >= 1, got {z}")
    counter = ensure_counter(rounds)
    rng = make_rng(seed)
    resolved = resolve_backend(graph, backend, DecompositionError)
    engine = None
    if resolved == "parallel":
        engine = engine_for(snapshot_of(graph), workers)
    classes = sorted(color_classes(coloring).items())
    batched: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    if schedule == "concurrent" and resolved in ("csr", "parallel"):
        snap = snapshot_of(graph)
        eligible = [
            i
            for i, (_color, eids) in enumerate(classes)
            if len(eids) >= DEPTH_CUT_ARRAYS_MIN_EDGES
        ]
        if eligible:
            per_class, _waves = rooted_forest_class_depths(
                snap,
                [snap.edge_positions(classes[i][1]) for i in eligible],
            )
            batched = dict(zip(eligible, per_class))
    kept: Coloring = {}
    deleted: List[int] = []
    deletion_tail: Dict[int, int] = {}
    for index, (color, eids) in enumerate(classes):
        use_arrays = (
            resolved in ("csr", "parallel")
            and len(eids) >= DEPTH_CUT_ARRAYS_MIN_EDGES
        )
        if use_arrays:
            if index in batched:
                du, dv, child_ids = batched[index]
                residue = rng.randrange(z)
            else:
                snap = snapshot_of(graph)
                arrays = rooted_forest_arrays(snap, eids, engine=engine)
                residue = rng.randrange(z)
                positions = snap.edge_positions(eids)
                du = arrays.depth[snap.edge_u[positions]]
                dv = arrays.depth[snap.edge_v[positions]]
                child_ids = np.where(
                    du > dv,
                    snap.edge_u_ids[positions],
                    snap.edge_v_ids[positions],
                )
            # The child endpoint of a forest edge is the deeper one
            # (depths differ by exactly 1); cutting the parent edges of
            # vertices at depth ≡ residue (mod z) is cutting the edges
            # whose child depth hits the residue.
            is_cut = (np.maximum(du, dv) % z) == (residue % z)
            for eid, cut, child in zip(
                eids, is_cut.tolist(), child_ids.tolist()
            ):
                if cut:
                    deleted.append(eid)
                    deletion_tail[eid] = int(child)
                else:
                    kept[eid] = coloring[eid]
            continue
        forest = RootedForest(graph, eids)
        residue = rng.randrange(z)
        cut_edges = set(forest.edges_at_depth_residue(residue, z))
        for eid in eids:
            if eid in cut_edges:
                u, v = graph.endpoints(eid)
                child = u if forest.depth[u] > forest.depth[v] else v
                deleted.append(eid)
                deletion_tail[eid] = child
            else:
                kept[eid] = coloring[eid]
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
    backend: str = "dict",
    workers: int = 0,
    schedule: str = "serial",
) -> DiameterReductionResult:
    """Corollary 2.5 front-end: pick ``z`` by regime.

    * ``mode="strong"``: ``z = ⌈20/ε⌉`` — diameter O(1/ε); the load
      bound needs α ≥ Ω(min(log n/ε, log Δ/ε²)), as in the paper.
    * ``mode="safe"``: ``z = ⌈20 log₂(n)/ε⌉`` — diameter O(log n/ε)
      with per-vertex load ~ εα/20 in expectation at any α.
    * ``mode="auto"``: strong when α ≥ log₂ n, else safe.

    ``backend`` / ``workers`` select the rooting substrate per color
    class (see :func:`depth_cut`); cuts are identical on every backend.
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
    return depth_cut(
        graph, coloring, z, seed=seed, rounds=rounds,
        backend=backend, workers=workers, schedule=schedule,
    )
