"""The batched ``H_v`` matchings of Theorem 5.4(1) against the
per-vertex Hopcroft–Karp path.

``core/star_forest.py`` matches every vertex's ``H_v`` with one batched
greedy pass and reruns Hopcroft–Karp only where greedy leaves a color
free.  The reference runs ``_sf_vertex_matching`` on every vertex;
colorings, rounds and every ``StarForestStats`` field must agree.  The
corpus must reach a vertex where Hopcroft–Karp augments past greedy
(else skipping the rerun would go unseen) and an LLL resample.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.star_forest as star_forest
from repro.core import star_forest_decomposition_amr
from repro.graph.csr import snapshot_of
from repro.graph.generators import erdos_renyi, union_of_random_forests
from repro.graph.matching import (
    batched_greedy_matching,
    greedy_matching,
    hopcroft_karp,
)
from repro.graph.multigraph import MultiGraph
from repro.verify import check_star_forest_decomposition

EPSILONS = (0.1, 0.25, 0.5)

# (label, graph factory, seed).  At ε = 0.1 and α ≤ 10, t = α + 1 and
# every real slot takes at most one color, so greedy is already
# maximum; α = 11 gives t = α + 2, where Hopcroft–Karp can augment.
GRAPHS = (
    ("forests_40_3", lambda: union_of_random_forests(40, 3, seed=0, simple=True), 1),
    ("forests_80_5", lambda: union_of_random_forests(80, 5, seed=1, simple=True), 2),
    ("forests_120_6", lambda: union_of_random_forests(120, 6, seed=2, simple=True), 3),
    ("forests_30_11", lambda: union_of_random_forests(30, 11, seed=0, simple=True), 4),
    ("er_30_015", lambda: erdos_renyi(30, 0.15, seed=3), 5),
    ("er_30_07", lambda: erdos_renyi(30, 0.7, seed=1), 6),
)


def _per_vertex_hv_matchings(slots, colors):
    """The reference: Hopcroft–Karp on every vertex's ``H_v``, one
    vertex at a time."""
    adjacency = star_forest._hv_adjacency(slots, colors)
    slot_colors = np.full(slots.heads.shape, -1, dtype=np.int64)
    for i, vertex_adjacency in enumerate(adjacency):
        match = star_forest._sf_vertex_matching(vertex_adjacency)
        for left, slot in enumerate(match.tolist()):
            if slot >= 0:
                slot_colors[i, slot] = colors[i, left]
    return slot_colors


def _summary(result):
    stats = result.stats
    return {
        "coloring": list(result.coloring.items()),
        "colors_used": result.colors_used,
        "rounds": result.rounds.total,
        "matching_deficits": stats.matching_deficits,
        "lll_rounds": stats.lll_rounds,
        "dummy_slots": stats.dummy_slots,
        "leftover_size": stats.leftover_size,
        "orientation_bound": stats.orientation_bound,
        "passes": [
            (p.name, p.items, p.rounds, p.reconcile_volume, p.vertices_touched)
            for p in stats.passes
        ],
    }


def _run(monkeypatch, graph, per_vertex, **kwargs):
    with monkeypatch.context() as patch:
        if per_vertex:
            patch.setattr(star_forest, "_hv_matchings", _per_vertex_hv_matchings)
        return star_forest_decomposition_amr(graph, **kwargs)


@pytest.fixture(scope="module")
def reach():
    """Totals over the corpus, filled in by the equivalence cases."""
    return {"cases": 0, "residual": 0, "hk_beats_greedy": 0, "lll": 0}


@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("label,make,seed", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_bulk_matches_per_vertex(monkeypatch, reach, label, make, seed, epsilon):
    graph = make()
    residual = []
    original = star_forest._sf_vertex_matching

    def counting(adjacency):
        match = original(adjacency)
        greedy = greedy_matching(
            [np.flatnonzero(row).tolist() for row in adjacency]
        )
        residual.append(int((match >= 0).sum()) > len(greedy))
        return match

    with monkeypatch.context() as patch:
        patch.setattr(star_forest, "_sf_vertex_matching", counting)
        bulk = _run(monkeypatch, graph, False, epsilon=epsilon, seed=seed)
    reference = _run(monkeypatch, graph, True, epsilon=epsilon, seed=seed)
    check_star_forest_decomposition(graph, bulk.coloring)
    assert _summary(bulk) == _summary(reference)
    reach["cases"] += 1
    reach["residual"] += len(residual)
    reach["hk_beats_greedy"] += sum(residual)
    reach["lll"] += bulk.stats.lll_rounds


def test_corpus_reaches_augmentation_and_resampling(reach):
    """Runs after the equivalence cases (file order): the corpus must
    exercise both the Hopcroft–Karp rerun and the LLL."""
    if reach["cases"] < len(GRAPHS) * len(EPSILONS):
        pytest.skip("needs the whole equivalence corpus in this run")
    assert reach["hk_beats_greedy"] > 0
    assert reach["residual"] > reach["hk_beats_greedy"]
    assert reach["lll"] > 0


def test_csr_input_matches(monkeypatch):
    graph = union_of_random_forests(60, 5, seed=4, simple=True)
    snapshot = snapshot_of(graph)
    kwargs = dict(epsilon=0.25, seed=7)
    expected = _summary(_run(monkeypatch, graph, False, **kwargs))
    assert _summary(_run(monkeypatch, snapshot, False, **kwargs)) == expected
    assert _summary(_run(monkeypatch, snapshot, True, **kwargs)) == expected


def test_gappy_vertex_ids(monkeypatch):
    """Vertex ids that are not ``0..n-1`` and deleted edges: the slot
    table's dense rows and edge positions still line up."""
    source = union_of_random_forests(50, 5, seed=3, simple=True)
    graph = MultiGraph()
    for v in source.vertices():
        graph.add_vertex(3 * v + 7)
    for _eid, u, v in source.edges():
        graph.add_edge(3 * u + 7, 3 * v + 7)
    for eid in graph.edge_ids()[::5]:
        graph.remove_edge(eid)
    kwargs = dict(epsilon=0.25, seed=4)
    bulk = _run(monkeypatch, graph, False, **kwargs)
    check_star_forest_decomposition(graph, bulk.coloring)
    assert set(bulk.coloring) == set(graph.edge_ids())
    assert _summary(bulk) == _summary(_run(monkeypatch, graph, True, **kwargs))


def test_hv_adjacency_is_the_definition():
    """Entry ``[i, c, s]``: slot ``s`` is a dummy, or color
    ``colors[i, c]`` is not in the out-neighbor's set."""
    graph = union_of_random_forests(40, 4, seed=5, simple=True)
    t = 6
    orientation = star_forest.orientation_exists(graph, t)
    slots = star_forest._slot_table(graph, orientation, t)
    rng = np.random.default_rng(0)
    colors = np.sort(
        np.array([rng.choice(t, 4, replace=False) for _ in range(graph.n)]),
        axis=1,
    )
    adjacency = star_forest._hv_adjacency(slots, colors)
    sets = [set(row) for row in colors.tolist()]
    ids = graph.vertices()
    for i in range(graph.n):
        out = sorted(e for e, tail in orientation.items() if tail == ids[i])
        assert slots.eids[i, : len(out)].tolist() == out
        assert (slots.eids[i, len(out):] == -1).all()
        heads = [ids[h] for h in slots.heads[i, : len(out)].tolist()]
        assert heads == [graph.other_endpoint(e, ids[i]) for e in out]
        for c, color in enumerate(colors[i].tolist()):
            for s in range(t):
                head = slots.heads[i, s]
                expected = head < 0 or color not in sets[head]
                assert adjacency[i, c, s] == expected


_bipartite = st.integers(1, 6).flatmap(
    lambda right: st.lists(
        st.lists(st.integers(0, right - 1), unique=True, max_size=right),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=200, deadline=None)
@given(_bipartite)
def test_greedy_is_hopcroft_karp_when_it_matches_every_left_node(adjacency):
    """Phase 1 of Hopcroft–Karp is greedy; if greedy leaves no left
    node free, no later phase runs."""
    greedy = greedy_matching(adjacency)
    match_left, _ = hopcroft_karp(adjacency)
    if len(greedy) == len(adjacency):
        assert match_left == greedy
    else:
        assert len(match_left) >= len(greedy)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda graphs: st.integers(1, 5).flatmap(
            lambda lefts: st.integers(1, 6).flatmap(
                lambda rights: st.lists(
                    st.booleans(),
                    min_size=graphs * lefts * rights,
                    max_size=graphs * lefts * rights,
                ).map(
                    lambda cells: np.array(cells, dtype=bool).reshape(
                        graphs, lefts, rights
                    )
                )
            )
        )
    )
)
def test_batched_greedy_is_greedy_per_graph(adjacency):
    match = batched_greedy_matching(adjacency)
    for g, graph in enumerate(adjacency):
        lists = [np.flatnonzero(row).tolist() for row in graph]
        expected = [-1] * len(lists)
        for left, right in greedy_matching(lists).items():
            expected[left] = right
        assert match[g].tolist() == expected
