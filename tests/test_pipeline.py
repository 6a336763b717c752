"""Tests for the pass pipelines: declaration validation, scheduler
semantics, bit-identity of pipelined tasks across backends, per-pass
instrumentation, ``describe``, and the config-first dispatch shim."""

import json
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
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


# ----------------------------------------------------------------------
# Declaration validation
# ----------------------------------------------------------------------


def _noop(ctx):
    pass


def test_duplicate_pass_name_rejected():
    with pytest.raises(RegistryError, match="duplicate pass 'a'"):
        Pipeline("p", [Pass("a", _noop), Pass("a", _noop)])


def test_retry_rule_must_name_known_pass():
    with pytest.raises(RegistryError, match="unknown pass 'nope'"):
        Pipeline(
            "p", [Pass("a", _noop)],
            retry=RetryRule(exceptions=(ValueError,), from_pass="nope"),
        )


def test_levels_follow_declaration_order():
    """A pipeline is its passes in declaration order: no dependency
    levels are computed, so the list is the execution order."""
    pipe = Pipeline("p", [Pass(name, _noop) for name in "adbc"])
    assert pipe.pass_names() == ["a", "d", "b", "c"]
    assert [p.name for p in pipe.passes] == pipe.pass_names()


# ----------------------------------------------------------------------
# Scheduler semantics on toy pipelines
# ----------------------------------------------------------------------


def _toy_pipeline(width=6):
    def produce(ctx):
        ctx["xs"] = list(range(width))

    def fan(ctx):
        ctx["ys"] = ctx.fan_out([(lambda x=x: x * x) for x in ctx["xs"]])

    def reduce_(ctx):
        ctx["result"] = sum(ctx["ys"])

    return Pipeline("toy", [
        Pass("produce", produce),
        Pass("fan", fan),
        Pass("reduce", reduce_),
    ])


@pytest.mark.parametrize("schedule", ["serial", "concurrent"])
@pytest.mark.parametrize("width", [1, 2, 4])
def test_toy_pipeline_identical_across_schedules(schedule, width):
    """A config carrying either value of the retired ``schedule`` field
    still loads, and the pipeline it drives runs the one execution
    path: same result and same per-pass history for both values."""
    config = DecompositionConfig.from_json({"schedule": schedule})
    assert config == DecompositionConfig()
    ctx = PipelineContext(config=config, counter=RoundCounter())
    out = Scheduler().run(_toy_pipeline(width), ctx)
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
        "flaky", [Pass("setup", setup), Pass("flaky", flaky)],
        retry=RetryRule(exceptions=(ValueError,), from_pass="flaky",
                        max_attempts=5),
    )
    ctx = PipelineContext(counter=RoundCounter())
    assert Scheduler().run(pipe, ctx) == 4
    # Execution history keeps the failed attempts.
    assert [s.name for s in ctx.pass_stats] == [
        "setup", "flaky", "flaky", "flaky",
    ]


def test_retry_restarts_mid_list_and_reruns_every_later_pass():
    calls = {"n": 0}

    def flaky(ctx):
        calls["n"] += 1
        if calls["n"] < 3:
            raise ValueError("try again")

    pipe = Pipeline(
        "p",
        [
            Pass("setup", _noop),
            Pass("split", _noop),
            Pass("flaky", flaky),
            Pass("combine", lambda ctx: ctx.__setitem__("result", "ok")),
        ],
        retry=RetryRule(exceptions=(ValueError,), from_pass="split"),
    )
    ctx = PipelineContext(counter=RoundCounter())
    assert Scheduler().run(pipe, ctx) == "ok"
    assert [s.name for s in ctx.pass_stats] == [
        "setup", "split", "flaky", "split", "flaky", "split", "flaky",
        "combine",
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
        Scheduler().run(pipe, PipelineContext(counter=RoundCounter()))


def test_concurrent_level_runs_independent_passes():
    """Passes with no data between them (once one concurrent level) run
    in list order, and their PassStats land in that order."""
    def seed_(ctx):
        ctx["acc"] = []

    def mk(name):
        def run(ctx):
            ctx["acc"].append(name)
        return run

    pipe = Pipeline("p", [
        Pass("seed", seed_),
        Pass("right", mk("right")),
        Pass("left", mk("left")),
        Pass("join", lambda ctx: ctx.__setitem__("result", ctx["acc"])),
    ])
    ctx = PipelineContext(counter=RoundCounter())
    assert Scheduler().run(pipe, ctx) == ["right", "left"]
    assert [s.name for s in ctx.pass_stats] == [
        "seed", "right", "left", "join",
    ]


# ----------------------------------------------------------------------
# Bit-identity of real tasks across backends
# ----------------------------------------------------------------------


def _corpus():
    return [
        (union_of_random_forests(48, 3, seed=11), 3),
        (union_of_random_forests(64, 2, seed=12, simple=True), 2),
    ]


def _run(graph, task, seed, backend="auto", **kwargs):
    config = DecompositionConfig(seed=seed, backend=backend)
    return repro.decompose(graph, task=task, config=config, **kwargs)


@pytest.mark.parametrize("task", [
    "forest", "star_forest", "orientation", "pseudoforest",
])
def test_serial_concurrent_bit_identity(task):
    """The pipelined task on the dict reference (one color class at a
    time) and on the csr kernel (orientation's depth cut roots every
    class in one stacked call) agrees bit for bit."""
    for graph, _alpha in _corpus():
        if task == "star_forest" and not graph.is_simple():
            continue
        reference = _run(graph, task, seed=5, backend="dict")
        got = _run(graph, task, seed=5, backend="csr")
        assert got.coloring == reference.coloring
        assert got.rounds.total == reference.rounds.total


def test_list_forest_bit_identity_across_schedules():
    """list_forest on the dict reference and on the csr kernel (every
    color class rooted in one stacked call) agrees bit for bit."""
    graph, alpha = _corpus()[0]
    palettes = random_palettes(graph, 12, 36, seed=7)
    reference = _run(
        graph, "list_forest", seed=5, backend="dict", palettes=palettes
    )
    got = _run(graph, "list_forest", seed=5, backend="csr", palettes=palettes)
    assert got.coloring == reference.coloring
    assert got.rounds.total == reference.rounds.total


# ----------------------------------------------------------------------
# Per-pass instrumentation
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
