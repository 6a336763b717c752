"""A :class:`CSRGraph` snapshot is a task input like a ``MultiGraph``.

* ``CSRGraph.edge_subgraph`` builds the same arrays (dtypes included)
  as snapshotting ``MultiGraph.edge_subgraph`` over the seeded corpus
  of ``tests/test_kernel_equivalence.py``, for full, empty, unsorted
  and repeated id lists;
* every built-in task and method returns on the snapshot exactly what
  it returns on the ``MultiGraph``: coloring, orientation, color count
  and charged rounds;
* what a snapshot cannot do (mutation) and options a task does not
  take are :class:`ValidationError`, never a ``TypeError`` or an
  ``AttributeError`` from deep inside.
"""

import math
import random

import numpy as np
import pytest

import repro
from repro import DecompositionConfig, Session, ValidationError
from repro.errors import GraphError
from repro.graph import CSRGraph, snapshot_of
from repro.graph.generators import (
    grid_graph,
    line_multigraph,
    preferential_attachment,
    random_palettes,
    union_of_random_forests,
)

from test_kernel_equivalence import SEEDS, random_multigraph

SNAPSHOT_ARRAYS = (
    "vertex_ids", "vertex_offsets", "neighbor_ids", "half_edge_ids",
    "edge_u", "edge_v", "edge_id", "edge_u_ids", "edge_v_ids",
)


def assert_same_snapshot(got, want):
    for name in SNAPSHOT_ARRAYS:
        mine, ref = getattr(got, name), getattr(want, name)
        assert mine.dtype == ref.dtype, name
        assert np.array_equal(mine, ref), name
    assert got._identity_edges == want._identity_edges
    assert got._index_of == want._index_of


@pytest.mark.parametrize("seed", SEEDS)
def test_csr_edge_subgraph_matches_multigraph_subgraph(seed):
    graph = random_multigraph(seed)
    snap = snapshot_of(graph)
    rng = random.Random(seed)
    eids = graph.edge_ids()
    subset = rng.sample(eids, len(eids) // 2)  # unsorted when len >= 2
    id_lists = [eids, [], subset, sorted(subset), list(reversed(eids))]
    if eids:
        id_lists.append(subset + eids[:1])  # a repeated id counts once
    for ids in id_lists:
        sub = snap.edge_subgraph(ids)
        want = CSRGraph.from_multigraph(graph.edge_subgraph(ids))
        assert_same_snapshot(sub, want)
        assert sub.edge_ids() == graph.edge_subgraph(ids).edge_ids()
        for eid in sub.edge_ids():
            u, v = graph.endpoints(eid)
            assert sub.other_endpoint(eid, u) == v
            assert sub.other_endpoint(eid, v) == u
    assert_same_snapshot(
        snap.edge_subgraph(np.asarray(subset, dtype=np.int64)),
        CSRGraph.from_multigraph(graph.edge_subgraph(subset)),
    )
    for unknown in (-1, max(eids, default=0) + 1):
        with pytest.raises(KeyError):
            snap.endpoints(unknown)
        with pytest.raises(GraphError):
            snap.edge_subgraph([unknown])
        with pytest.raises(GraphError):
            snap.other_endpoint(unknown, graph.vertices()[0])


def test_other_endpoint_rejects_a_foreign_vertex():
    graph = line_multigraph(4, 2)
    snap = snapshot_of(graph)
    eid = graph.edge_ids()[0]
    u, v = graph.endpoints(eid)
    stranger = next(w for w in graph.vertices() if w not in (u, v))
    with pytest.raises(GraphError, match="not an endpoint"):
        snap.other_endpoint(eid, stranger)


def _palettes(graph, alpha, epsilon, factor, seed):
    size = math.ceil((1 + epsilon) * alpha) * factor
    return random_palettes(graph, size, 3 * size, seed=seed)


def _lsfd_palettes(graph):
    t = math.ceil(1.5 * 4)
    return random_palettes(graph, 6 * t, 12 * t, seed=8)


#: (id, graph factory, config kwargs, task, task kwargs factory); the
#: cases marked in the id reach a leftover recolor.
TASK_CASES = [
    ("forest", lambda: preferential_attachment(120, 3, seed=2), {},
     "forest", lambda g: {}),
    ("forest-leftover", lambda: line_multigraph(90, 2), {"seed": 4},
     "forest", lambda g: {"radius": 2, "search_radius": 2}),
    ("forest-strong-leftover", lambda: grid_graph(10, 10),
     {"seed": 4, "diameter_mode": "strong"},
     "forest", lambda g: {"radius": 2, "search_radius": 2}),
    ("star_forest-leftover",
     lambda: union_of_random_forests(200, 4, seed=7, simple=True),
     {"seed": 3}, "star_forest", lambda g: {}),
    ("list_forest-cluster-leftover", lambda: grid_graph(10, 10),
     {"epsilon": 1.0, "alpha": 2, "seed": 2}, "list_forest",
     lambda g: {"palettes": _palettes(g, 2, 1.0, 3, 1),
                "radius": 2, "search_radius": 2}),
    ("list_forest-independent",
     lambda: union_of_random_forests(30, 2, seed=4),
     {"epsilon": 1.0, "alpha": 2, "seed": 5}, "list_forest",
     lambda g: {"palettes": _palettes(g, 2, 1.0, 8, 5),
                "splitting": "independent", "reserve_probability": 0.25}),
    ("list_star_forest-amr",
     lambda: union_of_random_forests(40, 4, seed=7, simple=True),
     {"epsilon": 0.5, "alpha": 4, "seed": 9}, "list_star_forest",
     lambda g: {"palettes": _lsfd_palettes(g), "method": "amr"}),
    ("list_star_forest-hpartition",
     lambda: union_of_random_forests(40, 4, seed=7, simple=True),
     {"seed": 9}, "list_star_forest",
     lambda g: {"palettes": _lsfd_palettes(g), "method": "hpartition"}),
] + [
    (f"{task}-{method}", lambda: preferential_attachment(120, 3, seed=2),
     {"seed": 6}, task, lambda g, method=method: {"method": method})
    for task in ("orientation", "pseudoforest")
    for method in ("augmentation", "hpartition", "exact")
]


def _outcome(result):
    orientation = getattr(result, "orientation", None)
    return (
        dict(result.coloring),
        None if orientation is None else dict(orientation),
        result.num_colors(),
        result.rounds.total,
    )


@pytest.mark.parametrize(
    "make, config_kwargs, task, make_kwargs",
    [case[1:] for case in TASK_CASES],
    ids=[case[0] for case in TASK_CASES],
)
def test_every_task_runs_on_a_snapshot(make, config_kwargs, task, make_kwargs):
    graph = make()
    kwargs = make_kwargs(graph)
    config = DecompositionConfig(validation="full", **config_kwargs)
    on_graph = repro.decompose(graph, task, config=config, **kwargs)
    snap = CSRGraph.from_multigraph(graph)
    on_snapshot = repro.decompose(snap, task, config=config, **kwargs)
    assert on_snapshot.graph is snap
    assert _outcome(on_snapshot) == _outcome(on_graph)


def test_recolor_cases_reach_a_leftover():
    """The ``-leftover`` cases above really run the leftover recolors
    (``_recolor_fresh``, ``_recolor_leftover_stars``, ``_reserve_lsfd``)."""
    for case_id, make, config_kwargs, task, make_kwargs in TASK_CASES:
        if not case_id.endswith("leftover"):
            continue
        graph = make()
        result = repro.decompose(
            graph, task, config=DecompositionConfig(**config_kwargs),
            **make_kwargs(graph),
        )
        leftover = getattr(result, "leftover_size", None)
        if leftover is None:
            leftover = result.stats.leftover_size
        assert leftover > 0, case_id


def test_snapshot_session_rejects_mutation():
    snap = snapshot_of(union_of_random_forests(30, 2, seed=1))
    session = Session(snap)
    assert session.decompose("orientation", method="hpartition").graph is snap
    for call in (
        lambda: session.watch("orientation", method="hpartition"),
        lambda: session.apply_delta(inserts=[(0, 1)]),
        lambda: session.content_digest(),
    ):
        with pytest.raises(ValidationError, match="mutable MultiGraph"):
            call()


def test_unknown_task_option_is_validation_error():
    graph = union_of_random_forests(30, 2, seed=1)
    with pytest.raises(ValidationError, match=r"config=DecompositionConfig"):
        repro.decompose(graph, "forest", seed=3)
    with pytest.raises(
        ValidationError, match=r"task 'orientation'.*\['bogus'\].*'method'"
    ):
        repro.decompose(graph, "orientation", bogus=1)
    with pytest.raises(ValidationError, match="bogus"):
        repro.decompose(
            graph, "forest", config=DecompositionConfig(options={"bogus": 1})
        )
    with pytest.raises(ValidationError, match="epsilon"):
        Session(graph).watch("orientation", epsilon=0.5)
