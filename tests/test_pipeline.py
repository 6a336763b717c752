"""Tests for the pass-pipeline compiler: DAG validation, the
serial/concurrent scheduler's bit-identity contract, per-pass
instrumentation, ``describe``, and the config-first dispatch shim."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import DecompositionConfig, Session
from repro.core.api import _config_from_kwargs, describe
from repro.errors import RegistryError
from repro.graph.generators import (
    random_palettes,
    union_of_random_forests,
)
from repro.local import RoundCounter
from repro.pipeline import (
    Pass,
    PassStats,
    Pipeline,
    PipelineContext,
    RetryRule,
    Scheduler,
    resolve_schedule,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


# ----------------------------------------------------------------------
# DAG validation
# ----------------------------------------------------------------------


def _noop(ctx):
    pass


def test_duplicate_pass_name_rejected():
    with pytest.raises(RegistryError, match="duplicate pass 'a'"):
        Pipeline("p", [Pass("a", _noop), Pass("a", _noop)])


def test_unknown_dependency_rejected():
    with pytest.raises(RegistryError, match="unknown pass 'ghost'"):
        Pipeline("p", [Pass("a", _noop, deps=("ghost",))])


def test_dependency_cycle_rejected():
    with pytest.raises(RegistryError, match="dependency cycle"):
        Pipeline("p", [
            Pass("a", _noop, deps=("b",)),
            Pass("b", _noop, deps=("a",)),
        ])


def test_retry_rule_must_name_known_pass():
    with pytest.raises(RegistryError, match="unknown pass 'nope'"):
        Pipeline(
            "p", [Pass("a", _noop)],
            retry=RetryRule(exceptions=(ValueError,), from_pass="nope"),
        )


def test_levels_follow_declaration_order():
    pipe = Pipeline("p", [
        Pass("a", _noop),
        Pass("b", _noop, deps=("a",)),
        Pass("c", _noop, deps=("a",)),
        Pass("d", _noop, deps=("b", "c")),
    ])
    assert [[p.name for p in lvl] for lvl in pipe.levels] == [
        ["a"], ["b", "c"], ["d"],
    ]
    assert pipe.pass_names() == ["a", "b", "c", "d"]


def test_unknown_schedule_rejected():
    with pytest.raises(RegistryError, match="unknown schedule"):
        resolve_schedule(10, "eventually")
    with pytest.raises(RegistryError, match="resolved schedule"):
        Scheduler("auto")


# ----------------------------------------------------------------------
# Scheduler semantics on toy pipelines
# ----------------------------------------------------------------------


def _toy_pipeline(width=6):
    def produce(ctx):
        ctx["xs"] = list(range(width))

    def fan(ctx):
        # The batched kernel runs under the concurrent schedule when
        # there is more than one item; it must match the per-item loop.
        ctx["ys"] = ctx.fan_out(
            [(lambda x=x: x * x) for x in ctx["xs"]],
            batched=lambda: [x * x for x in ctx["xs"]],
        )

    def reduce_(ctx):
        ctx["result"] = sum(ctx["ys"])

    return Pipeline("toy", [
        Pass("produce", produce),
        Pass("fan", fan, deps=("produce",)),
        Pass("reduce", reduce_, deps=("fan",)),
    ])


@pytest.mark.parametrize("schedule", ["serial", "concurrent"])
@pytest.mark.parametrize("width", [1, 2, 4])
def test_toy_pipeline_identical_across_schedules(schedule, width):
    ctx = PipelineContext(counter=RoundCounter())
    out = Scheduler(schedule).run(_toy_pipeline(width), ctx)
    assert out == sum(x * x for x in range(width))
    fan_stats = [s for s in ctx.pass_stats if s.name == "fan"]
    assert fan_stats[0].items == width
    assert [s.name for s in ctx.pass_stats] == ["produce", "fan", "reduce"]


def test_retry_reruns_from_declared_pass_and_keeps_history():
    calls = {"n": 0}

    def setup(ctx):
        ctx["base"] = 1

    def flaky(ctx):
        calls["n"] += 1
        if calls["n"] < 3:
            raise ValueError("try again")
        ctx["result"] = ctx["base"] + calls["n"]

    pipe = Pipeline(
        "flaky", [Pass("setup", setup), Pass("flaky", flaky, deps=("setup",))],
        retry=RetryRule(exceptions=(ValueError,), from_pass="flaky",
                        max_attempts=5),
    )
    ctx = PipelineContext(counter=RoundCounter())
    assert Scheduler("serial").run(pipe, ctx) == 4
    # Execution history keeps the failed attempts.
    assert [s.name for s in ctx.pass_stats] == [
        "setup", "flaky", "flaky", "flaky",
    ]


def test_retry_exhaustion_reraises():
    def always(ctx):
        raise ValueError("never converges")

    pipe = Pipeline(
        "p", [Pass("a", always)],
        retry=RetryRule(exceptions=(ValueError,), from_pass="a",
                        max_attempts=3),
    )
    with pytest.raises(ValueError):
        Scheduler("serial").run(pipe, PipelineContext(counter=RoundCounter()))


def test_concurrent_level_runs_independent_passes():
    def seed_(ctx):
        ctx["acc"] = {}

    def mk(name):
        def run(ctx):
            ctx["acc"][name] = True
        return run

    pipe = Pipeline("p", [
        Pass("seed", seed_),
        Pass("left", mk("left"), deps=("seed",)),
        Pass("right", mk("right"), deps=("seed",)),
        Pass("join", lambda ctx: ctx.__setitem__(
            "result", sorted(ctx["acc"])), deps=("left", "right")),
    ])
    ctx = PipelineContext(counter=RoundCounter())
    assert Scheduler("concurrent").run(pipe, ctx) == ["left", "right"]
    # PassStats for a concurrent level land in declaration order.
    assert [s.name for s in ctx.pass_stats] == [
        "seed", "left", "right", "join",
    ]


# ----------------------------------------------------------------------
# Schedule gating
# ----------------------------------------------------------------------


def test_auto_schedule_gates_on_size():
    from repro.pipeline.scheduler import CONCURRENT_MIN_VERTICES

    assert CONCURRENT_MIN_VERTICES == 50_000
    assert resolve_schedule(100, "auto") == "serial"
    assert resolve_schedule(CONCURRENT_MIN_VERTICES - 1, "auto") == "serial"
    assert resolve_schedule(CONCURRENT_MIN_VERTICES, "auto") == "concurrent"
    assert resolve_schedule(100_000, "auto") == "concurrent"
    assert resolve_schedule(100, "concurrent") == "concurrent"
    assert resolve_schedule(100_000, "serial") == "serial"


def test_session_resolve_schedule():
    g = union_of_random_forests(30, 2, seed=0)
    session = Session(g)
    assert session.resolve_schedule() == "serial"
    assert session.resolve_schedule(
        DecompositionConfig(schedule="concurrent")
    ) == "concurrent"


# ----------------------------------------------------------------------
# Bit-identity of real tasks across schedules
# ----------------------------------------------------------------------


def _corpus():
    return [
        (union_of_random_forests(48, 3, seed=11), 3),
        (union_of_random_forests(64, 2, seed=12, simple=True), 2),
    ]


def _run(graph, task, schedule, seed, **kwargs):
    config = DecompositionConfig(seed=seed, schedule=schedule)
    return repro.decompose(graph, task=task, config=config, **kwargs)


@pytest.mark.parametrize("task", [
    "forest", "star_forest", "orientation", "pseudoforest",
])
def test_serial_concurrent_bit_identity(task):
    for graph, _alpha in _corpus():
        if task == "star_forest" and not graph.is_simple():
            continue
        reference = _run(graph, task, "serial", seed=5)
        got = _run(graph, task, "concurrent", seed=5)
        assert got.coloring == reference.coloring
        assert got.rounds.total == reference.rounds.total


def test_list_forest_bit_identity_across_schedules():
    graph, alpha = _corpus()[0]
    palettes = random_palettes(graph, 12, 36, seed=7)
    reference = _run(graph, "list_forest", "serial", seed=5, palettes=palettes)
    got = _run(graph, "list_forest", "concurrent", seed=5, palettes=palettes)
    assert got.coloring == reference.coloring
    assert got.rounds.total == reference.rounds.total


# ----------------------------------------------------------------------
# Per-pass instrumentation
# ----------------------------------------------------------------------


def test_pass_stats_surface_on_results():
    graph, _ = _corpus()[0]
    result = _run(graph, "forest", "serial", seed=3)
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
        "name", "schedule", "wall_ms", "rounds", "engine_waves", "items",
        "reconcile_volume", "vertices_touched",
    }
    # The whole result payload stays JSON-serializable.
    json.dumps(result.to_json())


def test_star_forest_stats_keep_alias_keys():
    graph = union_of_random_forests(40, 2, seed=4, simple=True)
    result = _run(graph, "star_forest", "serial", seed=4)
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
# describe()
# ----------------------------------------------------------------------


def test_describe_lists_dag_with_citations():
    text = describe("forest")
    assert "task: forest" in text
    assert "algorithm2" in text and "deps: setup" in text
    assert "Theorem 4.5" in text
    assert describe("list_forest").count("retry:") == 1
    with pytest.raises(RegistryError):
        describe("bogus")


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


def test_config_json_roundtrip_includes_schedule():
    config = DecompositionConfig(schedule="concurrent")
    assert DecompositionConfig.from_json(config.to_json()).schedule == (
        "concurrent"
    )
    # Old payloads without the key still load (default "auto").
    payload = config.to_json()
    del payload["schedule"]
    assert DecompositionConfig.from_json(payload).schedule == "auto"


def test_unknown_schedule_value_rejected_in_config():
    with pytest.raises(Exception, match="schedule"):
        DecompositionConfig(schedule="sometimes")
