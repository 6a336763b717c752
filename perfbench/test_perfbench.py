"""Self-tests of the benchmark at tiny sizes.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "forest_pa": (30, 60, 120),
    "orient_pa": (100, 200, 400),
    "star_known": (100, 200, 400),
    "delta_stream": (300, 600, 1200),
}
SPEC = run.load_spec()


def _measure(name, trace, tamper=None):
    return run.measure(
        workloads.WORKLOADS[name], seed=3, seconds=0.01, trace=trace,
        sizes=TINY[name], tamper=tamper,
    )


def test_workloads_match_spec():
    assert sorted(workloads.WORKLOADS) == sorted(
        w["name"] for w in SPEC["workloads"]
    )


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_with_its_unit_and_traced_outputs_agree(name):
    values, diag = _measure(name, trace=False)
    out = run.result_object(values, SPEC, trace=False)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {n: m["unit"] for n, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert out["metrics"]["setup_s"]["value"] > 0
    assert out["metrics"]["call_p50_ms"]["value"] > 0
    assert values["wall_s"] == pytest.approx(
        diag["unscaled"]["wall_s"] * diag["scale"]
    )
    assert values["setup_s"] == pytest.approx(
        diag["unscaled"]["setup_s"] * diag["setup_scale"]
    )

    traced_values, traced_diag = _measure(name, trace=True)
    traced = run.result_object(traced_values, SPEC, trace=True)
    assert traced["correct"] and traced["failed"] == 0
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert traced["metrics"]["trace.targets_missing"]["value"] == 0
    assert traced["metrics"]["trace.coverage"]["value"] > 0.5
    assert 0 < traced["metrics"]["trace.layer_coverage"]["value"] <= (
        traced["metrics"]["trace.coverage"]["value"] + 1e-9
    )
    assert traced_diag["traced_colors"] == values["colors"]
    assert traced_diag["traced_rounds"] == values["rounds"]


def _drop_one_edge(result):
    coloring = dict(result.coloring)
    coloring.pop(next(iter(coloring)))
    result.coloring = coloring
    return result


@pytest.mark.parametrize("name", ["forest_pa", "delta_stream"])
def test_corrupted_result_is_counted_as_failed(name):
    values, diag = _measure(name, trace=False, tamper=_drop_one_edge)
    out = run.result_object(values, SPEC, trace=False)
    assert not out["correct"]
    assert out["failed"] >= out["attempted"] > 0
    assert values["fail_rate"] >= 1.0
    assert diag["errors"]


def test_tracer_restores_every_patched_name():
    import repro.core.session as session
    import repro.core.star_forest as star_forest
    from repro.core.registry import get_task
    from repro.graph.csr import CSRGraph

    def names():
        return (
            session.exact_arboricity,
            star_forest.exact_pseudoarboricity,
            vars(CSRGraph)["from_multigraph"],
            get_task("orientation").delta,
        )

    before = names()
    spans = tracer.Tracer()
    with spans.installed():
        assert all(a is not b for a, b in zip(names(), before))
    after = names()
    assert after == before
    assert spans.missing == []


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "forest_pa", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speedometer_samples_with_run_time():
    meter = speed.Speedometer()
    meter.sample(3)
    assert len(meter.samples) == 3
    meter.tick()  # less than TICK_SECONDS since the last sample
    assert len(meter.samples) == 3
    meter._last -= 3.5 * speed.TICK_SECONDS
    meter.tick()
    assert len(meter.samples) == 6
    assert meter.scale() == pytest.approx(
        speed.REFERENCE_MS / meter.median_ms()
    )
    assert meter.median_ms(start=3) == pytest.approx(
        sorted(meter.samples[3:])[1]
    )
