"""Augmenting sequences for list-forest decompositions (Section 3).

An *augmenting sequence* w.r.t. a partial LFD ψ is
``P = (e_1, c_1, ..., e_ℓ, c_ℓ)`` with

  (A1) ``e_1`` uncolored;
  (A2) ``e_i ∈ C(e_{i-1}, c_{i-1})`` for 2 <= i <= ℓ;
  (A3) ``e_i ∉ C(e_j, c_j)`` for all j < i - 1;
  (A4) ``C(e_ℓ, c_ℓ) = ∅``;
  (A5) ``c_i ∈ Q(e_i)``.

Applying the augmentation (ψ(e_i) := c_i for all i) keeps every color
class a forest (Lemma 3.1).  Theorem 3.2 guarantees existence within
radius O(log n / ε) of the uncolored edge whenever palettes have size
(1+ε)α; Algorithm 1 finds an *almost* augmenting sequence (drops A3) by
exponential growth, and Proposition 3.4 short-circuits it into a true
augmenting sequence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import AugmentationError
from .partial_coloring import PartialListForestDecomposition

Sequence_ = List[Tuple[int, int]]  # [(edge id, color), ...]


class AugmentationStats:
    """Counters exposed by the search (used by the Figure 2 bench)."""

    def __init__(self) -> None:
        self.iterations = 0
        self.explored_sizes: List[int] = []  # |E_i| after each iteration
        self.sequence_length = 0
        self.shortcut_removed = 0

    def growth_factors(self) -> List[float]:
        """|E_{i+1}| / |E_i| per iteration of Algorithm 1."""
        sizes = self.explored_sizes
        return [
            sizes[i + 1] / sizes[i]
            for i in range(len(sizes) - 1)
            if sizes[i] > 0
        ]


def find_almost_augmenting_sequence(
    state: PartialListForestDecomposition,
    start: int,
    allowed_vertices: Optional[Set[int]] = None,
    stats: Optional[AugmentationStats] = None,
) -> Optional[Sequence_]:
    """Algorithm 1: grow edge sets ``E_1 ⊆ E_2 ⊆ ...`` from the
    uncolored edge ``start`` until some (edge, color) pair has
    ``C(e, c) = ∅``; backtrack the discovery pointers into an almost
    augmenting sequence.

    ``allowed_vertices`` restricts exploration (both endpoints of every
    explored edge must lie inside) — Algorithm 2 passes the cluster
    ball so the search is local.  Returns None if the search saturates
    without terminating (cannot happen with (1+ε)α palettes on an
    unrestricted search, by Proposition 3.3).
    """
    if state.color_of(start) is not None:
        raise AugmentationError(f"edge {start} is already colored")
    if state.is_leftover(start):
        raise AugmentationError(f"edge {start} was removed by CUT")

    # Flat-array endpoint lookups (shared snapshot): the growth loop
    # below touches every explored edge's endpoints once per iteration,
    # which dominates the search on large neighborhoods.
    u_of, v_of = state.csr_snapshot().endpoint_maps()

    def allowed(eid: int) -> bool:
        if allowed_vertices is None:
            return True
        return u_of[eid] in allowed_vertices and v_of[eid] in allowed_vertices

    explored: Set[int] = {start}
    discovery: Dict[int, int] = {}  # π: newly added edge -> source edge
    # Vertices spanned by explored edges, for fast adjacency tests.
    spanned: Set[int] = {u_of[start], v_of[start]}
    path_cache: Dict[Tuple[int, int], Optional[List[int]]] = {}

    iteration = 0
    while True:
        iteration += 1
        if stats is not None:
            stats.iterations = iteration
            stats.explored_sizes.append(len(explored))
        newly_added: List[int] = []
        for eid in sorted(explored):
            own_color = state.color_of(eid)
            for color in state.palette(eid):
                if color == own_color:
                    continue
                key = (eid, color)
                if key in path_cache:
                    path = path_cache[key]
                else:
                    path = state.color_path(eid, color)
                    path_cache[key] = path
                if path is None:
                    # C(e, c) = ∅: almost augmenting sequence found.
                    return _backtrack(state, start, discovery, eid, color)
                for member in path:
                    if member in explored or not allowed(member):
                        continue
                    if u_of[member] in spanned or v_of[member] in spanned:
                        explored.add(member)
                        discovery[member] = eid
                        newly_added.append(member)
        if not newly_added:
            return None
        for eid in newly_added:
            spanned.add(u_of[eid])
            spanned.add(v_of[eid])


def _backtrack(
    state: PartialListForestDecomposition,
    start: int,
    discovery: Dict[int, int],
    terminal: int,
    terminal_color: int,
) -> Sequence_:
    """Reconstruct the almost augmenting sequence ending at
    ``(terminal, terminal_color)`` via the π pointers: for each j,
    ``e_{j-1} = π(e_j)`` and ``c_{j-1} = ψ(e_j)``."""
    sequence: Sequence_ = [(terminal, terminal_color)]
    edge = terminal
    while edge != start:
        source = discovery[edge]
        own_color = state.color_of(edge)
        assert own_color is not None, "explored non-start edges are colored"
        sequence.append((source, own_color))
        edge = source
    sequence.reverse()
    return sequence


def shortcut_sequence(
    state: PartialListForestDecomposition,
    sequence: Sequence_,
    stats: Optional[AugmentationStats] = None,
) -> Sequence_:
    """Proposition 3.4: repeatedly splice out violations of (A3) until
    the sequence is a genuine augmenting sequence."""
    current = list(sequence)
    path_cache: Dict[Tuple[int, int], Optional[List[int]]] = {}

    def path_members(eid: int, color: int) -> Set[int]:
        key = (eid, color)
        if key not in path_cache:
            path = state.color_path(eid, color)
            path_cache[key] = path
        path = path_cache[key]
        return set(path) if path else set()

    changed = True
    while changed:
        changed = False
        for j in range(len(current)):
            members = path_members(*current[j])
            # Find the largest i > j + 1 with e_i on C(e_j, c_j).
            for i in range(len(current) - 1, j + 1, -1):
                if current[i][0] in members:
                    if stats is not None:
                        stats.shortcut_removed += i - (j + 1)
                    current = current[: j + 1] + current[i:]
                    changed = True
                    break
            if changed:
                break
    return current


def is_augmenting_sequence(
    state: PartialListForestDecomposition,
    sequence: Sequence_,
    require_a3: bool = True,
) -> bool:
    """Check properties (A1)-(A5) of a sequence against ``state``."""
    if not sequence:
        return False
    first_edge, _ = sequence[0]
    if state.color_of(first_edge) is not None:  # (A1)
        return False
    for eid, color in sequence:  # (A5)
        if color not in state.palette(eid):
            return False
    paths: List[Optional[List[int]]] = [
        state.color_path(eid, color) for eid, color in sequence
    ]
    if paths[-1] is not None:  # (A4)
        return False
    for i in range(1, len(sequence)):  # (A2)
        prior = paths[i - 1]
        if prior is None or sequence[i][0] not in prior:
            return False
    if require_a3:  # (A3)
        for i in range(len(sequence)):
            for j in range(i - 1):
                members = paths[j]
                if members is not None and sequence[i][0] in members:
                    return False
    return True


def apply_augmentation(
    state: PartialListForestDecomposition,
    sequence: Sequence_,
) -> None:
    """Lemma 3.1: recolor ψ(e_i) := c_i along the sequence.

    Colors are applied back-to-front: the terminal edge moves into its
    empty target first, freeing its old color class for its predecessor,
    and so on.  The per-step cycle check in ``set_color`` makes a
    violation of Lemma 3.1 loud rather than silent.
    """
    for eid, color in reversed(sequence):
        state.set_color(eid, color)


def augment_edge(
    state: PartialListForestDecomposition,
    start: int,
    allowed_vertices: Optional[Set[int]] = None,
    stats: Optional[AugmentationStats] = None,
) -> Sequence_:
    """Find and apply an augmenting sequence from ``start``.

    Returns the applied sequence; raises :class:`AugmentationError` if
    the (possibly restricted) search fails.
    """
    almost = find_almost_augmenting_sequence(
        state, start, allowed_vertices, stats
    )
    if almost is None:
        raise AugmentationError(
            f"no augmenting sequence from edge {start} "
            f"({'restricted' if allowed_vertices is not None else 'global'} search)"
        )
    sequence = shortcut_sequence(state, almost, stats)
    if stats is not None:
        stats.sequence_length = len(sequence)
    apply_augmentation(state, sequence)
    return sequence
