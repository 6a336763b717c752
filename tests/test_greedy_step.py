"""Algorithm 2's greedy step: the free-color fast path in
``_process_cluster`` against the generic augmenting search.

When Algorithm 1's first iteration finds a palette color ``c`` with
``C(e, c) = ∅``, the search returns the length-1 sequence ``[(e, c)]``;
``PartialListForestDecomposition.free_color`` answers that without the
search.  These tests pin both halves of that claim:

* forcing the generic path (``free_color`` always None) changes no
  coloring, no charged round and no ``Algorithm2Stats`` counter, on the
  equivalence corpus, on cliques and dense G(n, p) at their exact α with
  ε = 0.1 (inputs whose searches go deeper than one step), and on list
  palettes;
* on random partial colorings, ``free_color(e) == c`` exactly when
  ``augment_edge`` applies ``[(e, c)]``, and None otherwise.
"""

import copy
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.api import forest_decomposition, list_forest_decomposition
from repro.core.augmenting import augment_edge
from repro.core.partial_coloring import PartialListForestDecomposition
from repro.errors import AugmentationError, ValidationError
from repro.graph import MultiGraph
from repro.graph.generators import (
    complete_graph,
    erdos_renyi,
    preferential_attachment,
    random_palettes,
)
from repro.nashwilliams import exact_arboricity

from test_kernel_equivalence import SEEDS, random_multigraph


def _without_timing(value):
    """``value`` with every ``wall_ms`` key dropped, recursively."""
    if isinstance(value, dict):
        return {
            key: _without_timing(item)
            for key, item in value.items()
            if key != "wall_ms"
        }
    if isinstance(value, list):
        return [_without_timing(item) for item in value]
    return value


def _observable(result):
    return {
        "coloring": dict(result.coloring),
        "rounds": result.rounds.total,
        "phases": result.rounds.by_phase(),
        "stats": _without_timing(result.stats.to_json()),
    }


def _fast_and_generic(monkeypatch, run):
    """``run()`` with the fast path, then with it forced off."""
    fast = _observable(run())
    with monkeypatch.context() as patch:
        patch.setattr(
            PartialListForestDecomposition, "free_color",
            lambda self, eid: None,
        )
        generic = _observable(run())
    return fast, generic


@pytest.mark.parametrize("seed", SEEDS)
def test_corpus_fast_path_matches_generic(monkeypatch, seed):
    graph = random_multigraph(seed)
    fast, generic = _fast_and_generic(
        monkeypatch, lambda: forest_decomposition(graph, seed=seed)
    )
    assert fast == generic


TIGHT_INPUTS = [
    pytest.param(complete_graph(n), 0, id=f"K{n}") for n in (6, 8, 12)
] + [
    pytest.param(erdos_renyi(40, 0.3, seed=seed), seed, id=f"er40-{seed}")
    for seed in (0, 1, 2)
]


@pytest.mark.parametrize("graph,seed", TIGHT_INPUTS)
def test_tight_inputs_fast_path_matches_generic(monkeypatch, graph, seed):
    alpha = exact_arboricity(graph)
    fast, generic = _fast_and_generic(
        monkeypatch,
        lambda: forest_decomposition(
            graph, epsilon=0.1, alpha=alpha, seed=seed
        ),
    )
    assert fast == generic


def test_k8_reaches_the_generic_search():
    """The fallback stays covered: K_8 at ε = 0.1 needs a length-2
    augmenting sequence, which only ``augment_edge`` finds."""
    result = forest_decomposition(complete_graph(8), epsilon=0.1, alpha=4, seed=0)
    assert result.stats.max_sequence_length == 2


@pytest.mark.parametrize("seed", (3, 7, 11))
def test_list_forest_fast_path_matches_generic(monkeypatch, seed):
    graph = preferential_attachment(120, 3, seed=seed)
    palettes = random_palettes(graph, 12, 36, seed=seed)
    fast, generic = _fast_and_generic(
        monkeypatch,
        lambda: list_forest_decomposition(
            graph, palettes, epsilon=0.5, alpha=3, seed=seed
        ),
    )
    assert fast == generic


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.integers(0, 2**32 - 1))
def test_free_color_is_algorithm1_first_iteration(seed):
    """``free_color(e)`` is ``c`` iff ``augment_edge`` applies exactly
    ``[(e, c)]``; otherwise it is None (the search went deeper, or found
    nothing)."""
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    graph = MultiGraph.with_vertices(n)
    for _ in range(rng.randint(1, 3 * n)):
        u, v = rng.sample(range(n), 2)
        graph.add_edge(u, v)
    space = rng.randint(1, 5)
    palettes = {
        eid: rng.sample(range(space), rng.randint(1, space))
        for eid in graph.edge_ids()
    }
    state = PartialListForestDecomposition(graph, palettes)
    eids = graph.edge_ids()
    start = rng.choice(eids)
    for eid in rng.sample(eids, len(eids)):
        if eid == start or rng.random() < 0.2:
            continue
        try:
            state.set_color(eid, rng.choice(palettes[eid]))
        except ValidationError:
            pass  # that color would close a cycle; leave it uncolored
    probe = copy.deepcopy(state)
    try:
        sequence = augment_edge(probe, start)
    except AugmentationError:
        sequence = None
    if sequence is not None and len(sequence) == 1:
        assert sequence[0][0] == start
        assert state.free_color(start) == sequence[0][1]
    else:
        assert state.free_color(start) is None
