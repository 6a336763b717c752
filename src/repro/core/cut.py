"""CUT: breaking monochromatic paths out of cluster balls (Theorem 4.2).

Given a partial forest decomposition and a cluster ball ``C'``,
``CUT(C', R)`` must remove edges from ``E(N^R(C')) \\ E(C')`` so that no
monochromatic path connects ``C'`` to ``V \\ N^R(C')`` ("the execution
is good"), while the removed ("leftover") edges keep pseudo-arboricity
at most ``⌈εα⌉``.  The paper gives four parameter/rule combinations; we
implement the two mechanisms behind them:

* **Depth-residue cutting** (rules 1, 2): root every tree of the
  c-colored ring forest at the cluster boundary and delete the edges
  whose depth is congruent to a per-color random residue ``J_c mod N``;
  every surviving ring chain is shorter than ``2N <= R``, so the cut is
  *always* good.  Each deleted edge is oriented away from its child,
  and a vertex loses each specific parent edge with probability
  ``1/N`` — the negative-correlation Chernoff argument of Theorem
  4.2(2) bounds the leftover out-degree by ``εα`` w.h.p.

* **Conditioned sampling** (rules 3, 4, extending [SV19b]): a fixed
  3α*-orientation ``J`` is computed once; on each invocation every
  vertex with load ``L(v) < εα`` deletes, with probability ``p``, one
  random present out-edge.  Loads never exceed ``⌈εα⌉`` by
  construction, so the leftover bound holds with probability one; the
  cut is good w.h.p. for the paper's ``p``, and a deterministic
  depth-residue fallback repairs any surviving path (counted in
  ``stats`` — at the paper's asymptotic parameters the fallback never
  fires).

All removals go through
:meth:`~repro.core.partial_coloring.PartialListForestDecomposition.remove_to_leftover`
with the charged tail vertex, so validators can re-check the
out-degree accounting."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set

from ..errors import DecompositionError
from ..graph.forests import RootedForest
from ..graph.traversal import neighborhood
from ..local.rounds import RoundCounter, ensure_counter
from ..rng import SeedLike, make_rng
from .partial_coloring import PartialListForestDecomposition


class CutStats:
    """Counters for the Figure 3 / Theorem 4.2 benches."""

    def __init__(self) -> None:
        self.invocations = 0
        self.removed_edges = 0
        self.fallback_removed = 0
        self.max_load = 0


class CutController:
    """Stateful CUT executor shared across all invocations of one
    Algorithm 2 run (the conditioned-sampling rule keeps per-vertex
    loads and a fixed orientation between invocations).

    Parameters
    ----------
    state:
        The partial decomposition being protected.
    epsilon, alpha:
        Decomposition parameters; the leftover budget is ``⌈εα⌉`` per
        vertex (out-degree in the recorded orientation).
    rule:
        ``"depth_residue"`` (Theorem 4.2(1)/(2)) or
        ``"conditioned_sampling"`` (Theorem 4.2(3)/(4)).
    orientation:
        For conditioned sampling: the fixed 3α*-orientation ``J``
        (edge id -> tail vertex).  Required for that rule.
    probability:
        For conditioned sampling: the deletion probability ``p``
        (defaults to the Lemma 4.4 schedule with η = 1/2).
    """

    def __init__(
        self,
        state: PartialListForestDecomposition,
        epsilon: float,
        alpha: int,
        rule: str = "depth_residue",
        orientation: Optional[Dict[int, int]] = None,
        probability: Optional[float] = None,
        seed: SeedLike = None,
        rounds: Optional[RoundCounter] = None,
    ) -> None:
        if rule not in ("depth_residue", "conditioned_sampling"):
            raise DecompositionError(f"unknown CUT rule {rule!r}")
        if rule == "conditioned_sampling" and orientation is None:
            raise DecompositionError(
                "conditioned_sampling requires a fixed orientation J"
            )
        self.state = state
        self.graph = state.graph
        self.epsilon = epsilon
        self.alpha = alpha
        self.rule = rule
        self.orientation = orientation
        self.probability = probability
        self.rng = make_rng(seed)
        self.rounds = ensure_counter(rounds)
        self.load: Dict[int, int] = {v: 0 for v in self.graph.vertices()}
        self.load_budget = max(1, math.ceil(epsilon * alpha))
        self.stats = CutStats()
        # Flat-array snapshot shared with the augmenting searches: the
        # region BFS and the E(N^R(C')) \ E(C') scan run vectorized.
        self.snapshot = state.csr_snapshot()

    # ------------------------------------------------------------------

    def cut(self, core: Set[int], radius: int) -> List[int]:
        """Execute CUT(core, R); returns the removed edge ids."""
        self.stats.invocations += 1
        region_mask = self.snapshot.neighborhood_mask(core, radius)
        region = self.snapshot.vertex_set_from_mask(region_mask)
        removable = self._removable_edges(core, region_mask)
        if self.rule == "depth_residue":
            removed = self._cut_depth_residue(core, region, removable, radius)
        else:
            removed = self._cut_conditioned_sampling(core, region, removable)
            repair = self._repair_if_bad(core, region, removable, radius)
            removed.extend(repair)
        self.stats.removed_edges += len(removed)
        if self.load:
            self.stats.max_load = max(self.stats.max_load, max(self.load.values()))
        self.rounds.charge(2 * radius + 1, "CUT invocation")
        return removed

    def _removable_edges(self, core: Set[int], region_mask) -> Set[int]:
        """E(N^R(core)) \\ E(core): candidates for removal.

        ``region_mask`` is the dense-index membership mask of
        ``N^R(core)``; the both-endpoints tests evaluate as three array
        ops instead of a Python loop over every edge.
        """
        snap = self.snapshot
        if snap.num_edges == 0:
            return set()
        core_mask = snap.mask_of(core)
        in_region = region_mask[snap.edge_u] & region_mask[snap.edge_v]
        in_core = core_mask[snap.edge_u] & core_mask[snap.edge_v]
        return set(snap.edge_id[in_region & ~in_core].tolist())

    # -- depth-residue rule ---------------------------------------------

    def _cut_depth_residue(
        self,
        core: Set[int],
        region: Set[int],
        removable: Set[int],
        radius: int,
    ) -> List[int]:
        modulus = max(1, radius // 2)
        removed: List[int] = []
        for color in sorted(self.state.used_colors()):
            ring_edges = [
                eid
                for eid in self.state.class_edges(color)
                if eid in removable and self.state.color_of(eid) == color
            ]
            if not ring_edges:
                continue
            forest = RootedForest(self.graph, ring_edges, roots=core)
            residue = self.rng.randrange(modulus)
            for eid in forest.edges_at_depth_residue(residue, modulus):
                u, v = self.graph.endpoints(eid)
                # Orient away from the child (deeper endpoint).
                child = u if forest.depth[u] > forest.depth[v] else v
                self.state.remove_to_leftover(eid, tail=child)
                self.load[child] += 1
                removed.append(eid)
        return removed

    # -- conditioned-sampling rule ----------------------------------------

    def default_probability(self, radius: int, total_classes: int) -> float:
        """The Lemma 4.4 schedule ``p = K α log n / (η R)`` with η = 1/2,
        clamped to [0, 1]; K is folded into a practical constant."""
        n = max(self.graph.n, 2)
        value = 2.0 * self.alpha * math.log(n) / max(1, radius)
        return min(1.0, value / max(1, total_classes))

    def _cut_conditioned_sampling(
        self, core: Set[int], region: Set[int], removable: Set[int]
    ) -> List[int]:
        assert self.orientation is not None
        p = self.probability if self.probability is not None else 0.5
        out_edges: Dict[int, List[int]] = {}
        for eid in removable:
            if self.state.is_leftover(eid):
                continue
            tail = self.orientation[eid]
            out_edges.setdefault(tail, []).append(eid)
        removed: List[int] = []
        for vertex in sorted(out_edges):
            if self.load[vertex] >= self.load_budget:
                continue
            if self.rng.random() >= p:
                continue
            eid = self.rng.choice(sorted(out_edges[vertex]))
            self.state.remove_to_leftover(eid, tail=vertex)
            self.load[vertex] += 1
            removed.append(eid)
        return removed

    # -- goodness ---------------------------------------------------------

    def _repair_if_bad(
        self,
        core: Set[int],
        region: Set[int],
        removable: Set[int],
        radius: int,
    ) -> List[int]:
        """Force-cut any monochromatic escape path the sampling missed,
        using the depth-residue rule on the offending colors only."""
        removed: List[int] = []
        for color in sorted(self.state.used_colors()):
            if self._color_escapes(core, region, color):
                before = len(removed)
                modulus = max(1, radius // 2)
                ring_edges = [
                    eid
                    for eid in self.state.class_edges(color)
                    if eid in removable
                ]
                if not ring_edges:
                    continue
                forest = RootedForest(self.graph, ring_edges, roots=core)
                residue = self.rng.randrange(modulus)
                for eid in forest.edges_at_depth_residue(residue, modulus):
                    u, v = self.graph.endpoints(eid)
                    child = u if forest.depth[u] > forest.depth[v] else v
                    self.state.remove_to_leftover(eid, tail=child)
                    self.load[child] += 1
                    removed.append(eid)
                self.stats.fallback_removed += len(removed) - before
        return removed

    def _color_escapes(self, core: Set[int], region: Set[int], color: int) -> bool:
        """True if a color-``color`` path leaves ``region`` from ``core``."""
        for start in core:
            reached = self.state.color_component_vertices(start, color)
            if any(v not in region for v in reached):
                return True
        return False


def is_cut_good(
    state: PartialListForestDecomposition,
    core: Set[int],
    radius: int,
) -> bool:
    """Check the goodness condition of Algorithm 2 for one cluster:
    no monochromatic path from ``core`` reaches outside ``N^R(core)``."""
    region = neighborhood(state.graph, core, radius)
    for color in state.used_colors():
        seen: Set[int] = set()
        for start in core:
            if start in seen:
                continue
            component = state.color_component_vertices(start, color)
            seen.update(component)
            if any(v not in region for v in component):
                return False
    return True
