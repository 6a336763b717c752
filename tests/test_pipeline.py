"""Tests for the task stages: bit-identity under legacy configs, the
per-stage records, list_forest's Las Vegas retry, ``describe``, and the
config-first dispatch shim."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import DecompositionConfig, Session
import repro.core.list_forest as list_forest_module
from repro.core.api import TASK_STAGES, _config_from_kwargs, describe
from repro.errors import RegistryError, ReservePaletteError
from repro.graph.generators import (
    random_palettes,
    union_of_random_forests,
)
from repro.pipeline import PassStats

SRC = str(Path(__file__).resolve().parent.parent / "src")


# ----------------------------------------------------------------------
# Bit-identity of real tasks under legacy configs
# ----------------------------------------------------------------------
#
# The dict substrate these tests once compared against now lives in
# tests/reference/ and is checked kernel by kernel in
# test_kernel_equivalence.py; the goldens pin the task outputs.  Here a
# config loaded from a payload naming the retired ``dict`` substrate
# must reproduce the default run bit for bit, on a fresh graph copy.


def _corpus():
    return [
        (union_of_random_forests(48, 3, seed=11), 3),
        (union_of_random_forests(64, 2, seed=12, simple=True), 2),
    ]


def _run(graph, task, seed, legacy_backend=None, **kwargs):
    payload = {"seed": seed}
    if legacy_backend is not None:
        payload["backend"] = legacy_backend
    config = DecompositionConfig.from_json(payload)
    return repro.decompose(graph, task=task, config=config, **kwargs)


@pytest.mark.parametrize("task", [
    "forest", "star_forest", "orientation", "pseudoforest",
])
def test_serial_concurrent_bit_identity(task):
    """The task under a legacy ``"backend": "dict"`` payload
    agrees bit for bit with the default run on a fresh graph copy."""
    for graph, _alpha in _corpus():
        if task == "star_forest" and not graph.is_simple():
            continue
        reference = _run(graph.copy(), task, seed=5)
        got = _run(graph, task, seed=5, legacy_backend="dict")
        assert got.coloring == reference.coloring
        assert got.rounds.total == reference.rounds.total


def test_list_forest_bit_identity_across_schedules():
    """list_forest under a legacy ``"backend": "dict"`` payload agrees
    bit for bit with the default run on a fresh graph copy."""
    graph, alpha = _corpus()[0]
    palettes = random_palettes(graph, 12, 36, seed=7)
    reference = _run(graph.copy(), "list_forest", seed=5, palettes=palettes)
    got = _run(
        graph, "list_forest", seed=5, legacy_backend="dict",
        palettes=palettes,
    )
    assert got.coloring == reference.coloring
    assert got.rounds.total == reference.rounds.total


# ----------------------------------------------------------------------
# Per-stage records
# ----------------------------------------------------------------------


def test_pass_stats_surface_on_results():
    graph, _ = _corpus()[0]
    result = _run(graph, "forest", seed=3)
    passes = result.stats["passes"]
    assert [p.name for p in passes] == [
        "setup", "algorithm2", "leftover_recolor", "diameter_reduce",
        "finalize",
    ]
    alg2 = passes[1]
    assert isinstance(alg2, PassStats)
    assert alg2.rounds > 0
    assert alg2.wall_ms >= 0.0
    payload = result.stats.to_json()
    assert [p["name"] for p in payload["passes"]] == [p.name for p in passes]
    assert set(payload["passes"][0]) == {
        "name", "wall_ms", "rounds", "engine_waves", "items",
        "reconcile_volume", "vertices_touched",
    }
    # The whole result payload stays JSON-serializable.
    json.dumps(result.to_json())


def test_star_forest_stats_keep_alias_keys():
    graph = union_of_random_forests(40, 2, seed=4, simple=True)
    result = _run(graph, "star_forest", seed=4)
    payload = result.stats.to_json()
    # Legacy reader contract: the old computed key survives as an alias.
    assert payload["max_deficit"] == result.stats.max_deficit
    assert "passes" in payload


def test_session_cache_info_aggregates_passes():
    graph, _ = _corpus()[0]
    session = Session(graph)
    config = DecompositionConfig(seed=1)
    session.decompose("forest", config)
    session.decompose("forest", config)
    totals = session.cache_info()["passes"]
    assert totals["algorithm2"]["runs"] == 2
    assert totals["algorithm2"]["wall_ms"] > 0


# ----------------------------------------------------------------------
# list_forest's Las Vegas retry
# ----------------------------------------------------------------------

_ATTEMPT = ["split", "algorithm2", "diameter_reduce", "reserve"]


def _failing_reserve(monkeypatch, failures):
    """Make the reserve LSFD raise ``ReservePaletteError`` on its first
    ``failures`` calls; returns the list of calls seen."""
    original = list_forest_module._reserve_lsfd
    calls = []

    def flaky(*args, **kwargs):
        calls.append(len(calls))
        if len(calls) <= failures:
            raise ReservePaletteError("reserve palettes empty (injected)")
        return original(*args, **kwargs)

    monkeypatch.setattr(list_forest_module, "_reserve_lsfd", flaky)
    return calls


def _list_forest_run(seed=5):
    graph, _alpha = _corpus()[0]
    palettes = random_palettes(graph, 12, 36, seed=7)
    return graph, repro.list_forest_decomposition(
        graph, palettes, 1.0, seed=seed,
    )


def _assert_retried(monkeypatch, failures):
    calls = _failing_reserve(monkeypatch, failures)
    graph, result = _list_forest_run()
    assert len(calls) == failures + 1
    assert [p.name for p in result.stats.passes] == (
        ["setup"] + _ATTEMPT * (failures + 1) + ["combine"]
    )
    assert result.stats.reserve_retries == failures
    result.validate("basic", graph=graph)


def test_retry_reruns_from_declared_pass_and_keeps_history(monkeypatch):
    """An empty reserve palette restarts list_forest at ``split``; the
    failed attempt's stage records stay in the history."""
    _assert_retried(monkeypatch, failures=1)


def test_retry_restarts_mid_list_and_reruns_every_later_pass(monkeypatch):
    """Every restart re-runs split through reserve, then combine runs
    once."""
    _assert_retried(monkeypatch, failures=3)


def test_retry_exhaustion_reraises(monkeypatch):
    """The fifth failed attempt re-raises ``ReservePaletteError``."""
    calls = _failing_reserve(monkeypatch, failures=10)
    with pytest.raises(ReservePaletteError):
        _list_forest_run()
    assert len(calls) == list_forest_module.RESERVE_ATTEMPTS == 5


# ----------------------------------------------------------------------
# describe()
# ----------------------------------------------------------------------


def test_describe_lists_dag_with_citations():
    text = describe("forest")
    assert "task: forest" in text
    assert "passes (execution order):" in text
    assert "  1. setup\n" in text and "  2. algorithm2\n" in text
    assert "Theorem 4.5" in text
    assert describe("list_forest").count("retry:") == 1
    with pytest.raises(RegistryError):
        describe("bogus")


@pytest.mark.parametrize("task", sorted(TASK_STAGES))
def test_describe_table_matches_executed_stages(task):
    """``describe`` reads a static table; a run's stage records carry
    exactly those names, in that order."""
    graph = union_of_random_forests(40, 4, seed=7, simple=True)
    config = DecompositionConfig(epsilon=0.5, alpha=4, seed=9)
    kwargs = {}
    if task in ("list_forest", "list_star_forest"):
        kwargs["palettes"] = random_palettes(graph, 36, 72, seed=8)
    result = repro.decompose(graph, task=task, config=config, **kwargs)
    assert [p.name for p in result.stats.passes] == [
        name for name, _description, _citation in TASK_STAGES[task]
    ]
    text = describe(task)
    for i, (name, description, citation) in enumerate(TASK_STAGES[task], 1):
        assert f"  {i}. {name}\n       {description}" in text
        if citation:
            assert f"[{citation}]" in text


def test_describe_list_star_forest_notes_hpartition_method():
    assert 'method="hpartition" runs Theorem 2.3 directly' in describe(
        "list_star_forest"
    )


def test_describe_via_module_namespace():
    assert repro.describe("orientation").startswith("task: orientation")


def test_cli_describe():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "describe", "pseudoforest"],
        capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": ""},
    )
    assert proc.returncode == 0
    assert "fold" in proc.stdout


# ----------------------------------------------------------------------
# Config-first dispatch shim
# ----------------------------------------------------------------------


def test_config_from_kwargs_prefers_explicit_config():
    explicit = DecompositionConfig(epsilon=0.25, seed=9)
    assert _config_from_kwargs(explicit, epsilon=1.0, seed=0) is explicit
    built = _config_from_kwargs(None, epsilon=1.0, seed=0)
    assert built.epsilon == 1.0 and built.seed == 0


def test_wrappers_accept_config_first_and_legacy_kwargs():
    graph, _ = _corpus()[0]
    legacy = repro.forest_decomposition(graph, epsilon=0.5, seed=2)
    config_first = repro.forest_decomposition(
        graph, config=DecompositionConfig(epsilon=0.5, seed=2)
    )
    assert legacy.coloring == config_first.coloring

    legacy_or = repro.low_outdegree_orientation(graph, 0.5, seed=2)
    config_or = repro.low_outdegree_orientation(
        graph, 99.0, config=DecompositionConfig(epsilon=0.5, seed=2)
    )
    assert legacy_or == config_or
