"""Tests for the unified decomposition API: DecompositionConfig,
the task registry, Session caching, the result protocol, and
the legacy shims' equivalence to the registry path."""

import io
import json

import pytest

import repro
from repro import (
    DecompositionConfig,
    RegistryError,
    Session,
    ValidationError,
    decompose,
)
from repro.core import registry
from repro.core.registry import TaskSpec
from repro.core.results import (
    DecompositionResult,
    OrientationResult,
    PseudoforestResult,
)
from repro.graph.generators import (
    skewed_palettes,
    union_of_random_forests,
)
from repro.graph.io import read_result_json, write_result_json


def small_graph(simple=False):
    return union_of_random_forests(40, 3, seed=7, simple=simple)


# ----------------------------------------------------------------------
# DecompositionConfig
# ----------------------------------------------------------------------


def test_config_roundtrip():
    config = DecompositionConfig(
        epsilon=0.5, alpha=3, seed=11,
        diameter_mode="auto", cut_rule="conditioned_sampling",
        validation="basic", options={"method": "hpartition"},
    )
    payload = config.to_json()
    json.dumps(payload)  # actually JSON-serializable
    assert DecompositionConfig.from_json(payload) == config


def test_config_roundtrip_defaults():
    config = DecompositionConfig()
    assert DecompositionConfig.from_json(config.to_json()) == config


def test_config_from_json_rejects_unknown_fields():
    with pytest.raises(ValidationError, match="unknown"):
        DecompositionConfig.from_json({"epsilon": 0.5, "bogus": 1})


@pytest.mark.parametrize("delta_mode", ["auto", "incremental", "full"])
def test_config_from_json_drops_retired_carve_and_delta_fields(delta_mode):
    """Payloads written before ``carve_rule``, ``delta_mode`` and
    ``delta_threshold`` left the config still load: the doubling carve
    is the only carve, and the delta knobs never changed a result."""
    payload = DecompositionConfig(epsilon=0.5, seed=3).to_json()
    payload.update(
        carve_rule="doubling", delta_mode=delta_mode, delta_threshold=0.4
    )
    loaded = DecompositionConfig.from_json(payload)
    assert loaded == DecompositionConfig(epsilon=0.5, seed=3)
    assert "carve_rule" not in loaded.to_json()


@pytest.mark.parametrize("retired", [
    {"carve_rule": "simultaneous"},
    {"carve_rule": "doubing"},
    {"delta_threshold": 1.5},
    {"delta_threshold": -0.1},
    {"delta_threshold": True},
    {"delta_threshold": "0.25"},
    {"delta_mode": "sometimes"},
], ids=lambda retired: "-".join(f"{k}={v}" for k, v in retired.items()))
def test_config_from_json_rejects_retired_values_it_cannot_honor(retired):
    """A simultaneous-carve payload would silently change its clusters
    on resume, so it raises; so does any value the old fields refused."""
    with pytest.raises(ValidationError):
        DecompositionConfig.from_json(dict(retired))


def test_config_rejects_bad_values():
    with pytest.raises(ValidationError):
        DecompositionConfig(validation="loud")
    with pytest.raises(ValidationError):
        DecompositionConfig(diameter_mode="sideways")
    with pytest.raises(ValidationError):
        DecompositionConfig(epsilon=-1.0)
    for retired in (
        "workers", "schedule", "backend",
        "carve_rule", "delta_mode", "delta_threshold",
    ):
        with pytest.raises(TypeError):
            DecompositionConfig(**{retired: 2})


def test_config_workers_roundtrip():
    """Payloads written before the ``workers`` field was retired carry
    it: a non-negative int is accepted and dropped, anything else in
    it (a bool included) still raises, and to_json() no longer emits
    it."""
    config = DecompositionConfig(seed=2)
    assert "workers" not in config.to_json()
    assert DecompositionConfig.from_json(config.to_json()) == config
    legacy = dict(config.to_json(), workers=4)
    assert DecompositionConfig.from_json(legacy) == config
    for bad in (-1, 2.5, "2", True, False):
        with pytest.raises(ValidationError):
            DecompositionConfig.from_json(dict(config.to_json(), workers=bad))
    with pytest.raises(ValidationError):
        DecompositionConfig.from_json(dict(config.to_json(), threads=2))


def test_config_legacy_schedule_key():
    """Payloads written before the ``schedule`` field was retired
    carry it: a value the old field accepted is dropped, anything
    else raises."""
    config = DecompositionConfig(seed=3)
    assert "schedule" not in config.to_json()
    for value in ("auto", "serial", "concurrent"):
        legacy = dict(config.to_json(), schedule=value)
        assert DecompositionConfig.from_json(legacy) == config
    for bad in ("sometimes", True, None):
        with pytest.raises(ValidationError):
            DecompositionConfig.from_json(dict(config.to_json(), schedule=bad))


def test_config_legacy_backend_names():
    """Payloads written before the ``backend`` field was retired carry
    it: every value the old field ever accepted is dropped and the run
    is exactly the default one; anything else (a bool and an int
    included) raises."""
    config = DecompositionConfig(epsilon=0.5, seed=11)
    assert "backend" not in config.to_json()
    graph = small_graph()
    reference = decompose(graph, task="forest", config=config)
    for retired in ("auto", "dict", "csr", "sharded", "parallel", "mp"):
        legacy = dict(config.to_json(), backend=retired)
        loaded = DecompositionConfig.from_json(legacy)
        assert loaded == config
        assert "backend" not in loaded.to_json()
        result = decompose(graph, task="forest", config=loaded)
        assert result.coloring == reference.coloring
        assert result.rounds.total == reference.rounds.total
    for bad in (True, 1, "bogus", "threads", None):
        with pytest.raises(ValidationError, match="backend"):
            DecompositionConfig.from_json(dict(config.to_json(), backend=bad))


def test_config_replace_and_defaults():
    config = DecompositionConfig()
    assert config.epsilon is None
    resolved = config.with_defaults(0.25)
    assert resolved.epsilon == 0.25
    assert config.with_defaults(0.25).replace(epsilon=0.7).epsilon == 0.7
    # an explicit epsilon wins over the task default
    assert DecompositionConfig(epsilon=0.9).with_defaults(0.25).epsilon == 0.9


def test_config_rejects_unserializable_seed():
    config = DecompositionConfig(seed=object())
    with pytest.raises(ValidationError, match="seed"):
        config.to_json()


def test_config_rejects_unserializable_options():
    config = DecompositionConfig(options={"callback": object()})
    with pytest.raises(ValidationError, match="options"):
        config.to_json()


def test_color_order_is_numeric_for_int_colors():
    """Dense index i of coloring_array()/forests() must be color i,
    even past 9 colors (repr-sorting would give 0, 1, 10, 11, 2, ...)."""
    result = DecompositionResult.__new__(DecompositionResult)
    result.coloring = {eid: eid % 12 for eid in range(36)}
    assert result.color_order() == list(range(12))
    mixed = DecompositionResult.__new__(DecompositionResult)
    mixed.coloring = {0: 10, 1: 2, 2: ("amr", 10), 3: ("amr", 2), 4: "z"}
    assert mixed.color_order() == [2, 10, "z", ("amr", 2), ("amr", 10)]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_unknown_task_error_lists_available():
    with pytest.raises(RegistryError, match="forest"):
        decompose(small_graph(), task="bogus_task")


def test_unknown_backend_error():
    """No entry point takes a substrate: ``backend=`` is a TypeError on
    the config and the legacy wrappers, and an unknown legacy value in
    a JSON payload names the retired field."""
    with pytest.raises(TypeError):
        DecompositionConfig(backend="csr")
    with pytest.raises(TypeError):
        repro.forest_decomposition(small_graph(), backend="csr")
    with pytest.raises(ValidationError, match="backend"):
        DecompositionConfig.from_json({"backend": "bogus"})


def test_register_task_and_override():
    calls = []

    def runner(session, config, rounds=None):
        calls.append(config)
        return OrientationResult({}, 0, graph=session.graph)

    spec = TaskSpec(name="_test_task", runner=runner, default_epsilon=0.125)
    registry.register_task(spec)
    try:
        with pytest.raises(RegistryError, match="already registered"):
            registry.register_task(spec)
        registry.register_task(spec, override=True)  # no raise
        assert "_test_task" in repro.available_tasks()
        result = decompose(small_graph(), task="_test_task")
        assert isinstance(result, OrientationResult)
        # the task default epsilon was resolved into the config
        assert calls[-1].epsilon == 0.125
    finally:
        registry.unregister_task("_test_task")
    assert "_test_task" not in repro.available_tasks()


# ----------------------------------------------------------------------
# Session caching
# ----------------------------------------------------------------------


def test_session_snapshot_built_once_across_two_tasks(monkeypatch):
    from repro.graph.csr import CSRGraph

    graph = small_graph()
    builds = []
    original = CSRGraph.from_multigraph.__func__

    def counting(cls, g):
        builds.append(g)
        return original(cls, g)

    monkeypatch.setattr(
        CSRGraph, "from_multigraph", classmethod(counting)
    )
    session = Session(graph)
    session.decompose("forest", DecompositionConfig(epsilon=0.5, seed=11))
    session.decompose("orientation", DecompositionConfig(seed=3))
    host_builds = [g for g in builds if g is graph]
    assert len(host_builds) == 1  # one snapshot of the host graph total


def test_lsfd_hpartition_and_degeneracy_reuse_the_session_snapshot(
    monkeypatch,
):
    """The Theorem 2.3 LSFD and the degeneracy peels read the host's
    cached snapshot: a Session ``list_star_forest`` call with
    ``method="hpartition"`` followed by both degeneracy calls converts
    the host graph exactly once."""
    from repro.decomposition.degeneracy import (
        degeneracy_ordering,
        degeneracy_orientation,
    )
    from repro.graph.csr import CSRGraph

    graph = union_of_random_forests(400, 4, seed=2, simple=True)
    builds = []
    original = CSRGraph.from_multigraph.__func__

    def counting(cls, g):
        builds.append(g)
        return original(cls, g)

    monkeypatch.setattr(
        CSRGraph, "from_multigraph", classmethod(counting)
    )
    palettes = {eid: list(range(40)) for eid in graph.edge_ids()}
    result = Session(graph).decompose(
        "list_star_forest", DecompositionConfig(seed=1),
        palettes=palettes, method="hpartition",
    )
    result.validate("full")
    degeneracy_ordering(graph)
    degeneracy_orientation(graph)
    assert [g for g in builds if g is graph] == [graph]


def test_session_memoizes_arboricity(monkeypatch):
    import repro.core.session as session_module

    graph = small_graph()
    calls = []
    original = session_module.exact_arboricity

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(session_module, "exact_arboricity", counting)
    session = Session(graph)
    session.decompose("forest", DecompositionConfig(epsilon=0.5, seed=11))
    session.decompose("orientation", DecompositionConfig(seed=3))
    assert len(calls) == 1
    assert session.cache_info()["arboricity"]["hits"] >= 1


def test_session_mutation_fingerprint_invalidates():
    graph = small_graph()
    session = Session(graph)
    snap1 = session.snapshot()
    alpha1 = session.arboricity()
    assert session.snapshot() is snap1  # cache hit while unmutated
    graph.add_edge(0, 1)
    assert session.snapshot() is not snap1  # fingerprint moved
    assert session.arboricity() >= alpha1
    info = session.cache_info()
    assert info["snapshot"]["misses"] == 2
    assert info["snapshot"]["hits"] == 1


def test_unknown_lsfd_method_is_decomposition_error():
    from repro.errors import DecompositionError

    graph = small_graph(simple=True)
    palettes = {eid: range(9) for eid in graph.edge_ids()}
    with pytest.raises(DecompositionError, match="unknown LSFD method"):
        decompose(graph, task="list_star_forest", palettes=palettes,
                  method="bogus")


def test_simple_only_enforced_by_dispatcher():
    """The registry flag, not just the pipeline, rejects multigraphs —
    so third-party simple_only tasks get the check for free."""
    from repro.graph.generators import line_multigraph

    def runner(session, config, rounds=None):
        raise AssertionError("runner must not be reached")

    spec = TaskSpec(name="_simple_task", runner=runner, simple_only=True)
    registry.register_task(spec)
    try:
        with pytest.raises(repro.GraphError, match="simple"):
            decompose(line_multigraph(5, 3), task="_simple_task")
    finally:
        registry.unregister_task("_simple_task")


def test_session_prepare_and_default_config():
    graph = small_graph()
    session = Session(graph, config=DecompositionConfig(epsilon=0.5, seed=11))
    session.prepare()
    assert session.last_prep_seconds >= 0.0
    # decompose() with no config uses the session default
    result = session.decompose("forest")
    reference = repro.forest_decomposition(graph, epsilon=0.5, seed=11)
    assert result.coloring == reference.coloring


def test_decompose_rejects_foreign_session():
    graph, other = small_graph(), small_graph()
    with pytest.raises(ValidationError, match="different graph"):
        decompose(graph, task="forest", session=Session(other))


# ----------------------------------------------------------------------
# Result protocol
# ----------------------------------------------------------------------


def test_result_protocol_forest():
    graph = small_graph()
    result = decompose(
        graph, task="forest",
        config=DecompositionConfig(epsilon=0.5, seed=11, validation="basic"),
    )
    forests = result.forests()
    assert sorted(eid for forest in forests for eid in forest) == sorted(
        graph.edge_ids()
    )
    array = result.coloring_array()
    assert array.shape == (graph.m,)
    assert array.min() >= 0  # fully colored
    assert int(array.max()) + 1 == result.num_colors()
    assert result.config.epsilon == 0.5


def test_result_coloring_array_matches_coloring():
    graph = small_graph()
    result = decompose(
        graph, task="forest", config=DecompositionConfig(seed=11)
    )
    from repro.graph.csr import snapshot_of

    snapshot = snapshot_of(graph)
    order = result.color_order()
    array = result.coloring_array()
    for position, eid in enumerate(snapshot.edge_id.tolist()):
        assert order[array[position]] == result.coloring[eid]


def test_result_json_roundtrip_all_tasks():
    graph = small_graph()
    simple = small_graph(simple=True)
    palettes = skewed_palettes(
        graph, 9, color_space=27, hot_fraction=0.5, seed=3
    )
    cases = [
        decompose(graph, task="forest", config=DecompositionConfig(seed=1)),
        decompose(simple, task="star_forest",
                  config=DecompositionConfig(seed=2)),
        decompose(graph, task="list_forest",
                  config=DecompositionConfig(epsilon=1.0, seed=3),
                  palettes=palettes),
        decompose(graph, task="pseudoforest",
                  config=DecompositionConfig(seed=4)),
        decompose(graph, task="orientation",
                  config=DecompositionConfig(seed=5)),
    ]
    for result in cases:
        payload = json.loads(json.dumps(result.to_json()))
        back = DecompositionResult.from_json(payload, graph=result.graph)
        assert back.kind == result.kind
        assert back.coloring == result.coloring
        back.validate()  # rebuilt results validate against the graph


def test_result_json_file_roundtrip():
    graph = small_graph()
    result = decompose(graph, task="orientation",
                       config=DecompositionConfig(seed=5))
    buffer = io.StringIO()
    write_result_json(result, buffer)
    buffer.seek(0)
    back = read_result_json(buffer, graph=graph)
    assert back.kind == "orientation"
    assert back.bound == result.bound
    assert back.coloring == result.coloring


def test_validation_levels():
    graph = small_graph()
    palettes = skewed_palettes(
        graph, 9, color_space=27, hot_fraction=0.5, seed=3
    )
    result = decompose(
        graph, task="list_forest",
        config=DecompositionConfig(epsilon=1.0, seed=3, validation="full"),
        palettes=palettes,
    )
    # full validation checked palette membership during dispatch; a
    # corrupted coloring must now fail it
    result.coloring[next(iter(result.coloring))] = 10 ** 9
    with pytest.raises(ValidationError):
        result.validate(level="full")


def test_validate_unbound_result_needs_graph():
    result = DecompositionResult.from_json(
        {"schema_version": 1, "kind": "forest", "coloring": []}
    )
    with pytest.raises(ValidationError, match="not bound"):
        result.validate()


def test_pseudoforest_and_orientation_wrap_tuples():
    graph = small_graph()
    coloring, k = repro.pseudoforest_decomposition(graph, seed=4)
    result = decompose(graph, task="pseudoforest",
                       config=DecompositionConfig(seed=4))
    assert isinstance(result, PseudoforestResult)
    assert (result.coloring, result.k) == (coloring, k)

    orientation, bound = repro.low_outdegree_orientation(graph, 0.5, seed=5)
    oresult = decompose(graph, task="orientation",
                        config=DecompositionConfig(epsilon=0.5, seed=5))
    assert isinstance(oresult, OrientationResult)
    assert (oresult.orientation, oresult.bound) == (orientation, bound)


def test_star_forest_rejects_multigraph_through_registry():
    from repro.graph.generators import line_multigraph

    with pytest.raises(repro.GraphError):
        decompose(line_multigraph(5, 3), task="star_forest")


def test_list_tasks_require_palettes():
    with pytest.raises(repro.PaletteError, match="palettes"):
        decompose(small_graph(), task="list_forest")


# ----------------------------------------------------------------------
# Shim equivalence: legacy wrappers == registry path
# ----------------------------------------------------------------------


def test_shim_matches_session_path():
    graph = small_graph()
    legacy = repro.forest_decomposition(
        graph, epsilon=0.5, seed=11, diameter_mode="auto"
    )
    unified = Session(graph).decompose(
        "forest",
        DecompositionConfig(epsilon=0.5, seed=11, diameter_mode="auto"),
    )
    assert legacy.coloring == unified.coloring
    assert legacy.colors_used == unified.colors_used


def test_backend_dict_csr_identical_through_api():
    """The legacy-shaped wrapper and ``decompose`` under configs loaded
    from payloads naming each former substrate agree bit for bit (the
    substrate comparison itself lives in test_kernel_equivalence.py,
    kernel by kernel against tests/reference/)."""
    graph = union_of_random_forests(60, 3, seed=9)
    wrapper = repro.forest_decomposition(graph, epsilon=0.5, seed=13)
    for backend in ("auto", "dict", "csr"):
        config = DecompositionConfig.from_json(
            {"epsilon": 0.5, "seed": 13, "backend": backend}
        )
        result = decompose(graph.copy(), task="forest", config=config)
        assert result.coloring == wrapper.coloring
        assert result.rounds.total == wrapper.rounds.total


# ----------------------------------------------------------------------
# dir() / lazy exports
# ----------------------------------------------------------------------


def test_dir_lists_high_level_api():
    names = dir(repro)
    for expected in (
        "decompose", "Session", "DecompositionConfig", "register_task",
        "forest_decomposition",
        "star_forest_decomposition", "low_outdegree_orientation",
        "available_tasks", "verify", "graph",
    ):
        assert expected in names, expected
    assert set(repro.__all__) <= set(names)


def test_lazy_getattr_unknown_name():
    with pytest.raises(AttributeError, match="no attribute"):
        repro.definitely_not_a_name


def test_import_does_not_load_concurrent_futures():
    """``import repro`` stays off ``concurrent.futures`` too: there is
    no thread executor left, and the import alone costs ~9 ms."""
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    subprocess.run(
        [
            sys.executable, "-c",
            "import repro, repro.core, sys; "
            "assert 'concurrent.futures' not in sys.modules",
        ],
        env=env, check=True,
    )


def test_import_does_not_load_multiprocessing():
    """``import repro`` stays off ``multiprocessing``: the library runs
    every wave serially, and loading the process machinery would add
    its import time to every run."""
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    subprocess.run(
        [
            sys.executable, "-c",
            "import repro, sys; assert 'multiprocessing' not in sys.modules",
        ],
        env=env, check=True,
    )
