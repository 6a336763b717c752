"""End-to-end benchmark of the decomposition library.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload forest_pa --seed 1 --seconds 15 --trace 0

``--trace 0`` times the calls with nothing patched and reports the
``end_to_end`` metrics of ``BENCHMARK.json``; ``--trace 1`` runs the same
plan with every input timed twice (untraced and traced) and reports the
``per_layer`` metrics.  The last
line of standard output is the result object; the line before it holds
diagnostics (environment, sample counts, per-rung medians, unscaled
times, errors).  Every time metric is scaled to a reference machine
speed measured during the run (see ``speed.py``).
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Inputs are built this many times per run; setup_s takes the median.
SETUP_REPEATS = 3
#: A run stops starting new passes after this many times ``--seconds``,
#: which bounds a run on a slow machine or a slow commit; ``wall_s`` is
#: then scaled up to the planned number of calls.
DEADLINE_FACTOR = 2.0

PASS_NAMES = {
    "forest": ("setup", "algorithm2", "leftover_recolor", "diameter_reduce",
               "finalize"),
    "orientation": ("setup", "decompose", "orient", "finalize"),
    "star_forest": ("setup", "orient", "sample", "matchings", "assemble",
                    "leftover_recolor", "finalize"),
}
ROUND_PHASES = (
    "algorithm2.network_decomposition",
    "algorithm2.cluster_processing",
    "leftover_recoloring",
    "top",
)
SPAN_MS = (
    "graph.snapshot", "graph.ball", "graph.power_graph", "graph.matching",
    "nashwilliams.arboricity", "nashwilliams.pseudoarboricity",
    "nashwilliams.t_orientation", "decomposition.network_decomposition",
    "decomposition.h_partition", "decomposition.hpartition_star_forest",
    "core.augment", "core.vertex_matching", "graph.edge_subgraph",
    "service.patch_snapshot",
    "service.repair_waves", "service.refresh",
)
#: End-to-end metrics that are times, and so are scaled to the reference
#: speed (see ``speed.py``).
TIME_METRICS = ("wall_s", "setup_s", "call_p50_ms", "call_p90_ms")


def _import_library():
    """Import the library from ``src/`` of this checkout, or exit 2."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source at {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import repro.core.api  # noqa: F401
        import repro.service.delta  # noqa: F401
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        sys.exit(2)
    return workloads


# ----------------------------------------------------------------------
# Environment record (diagnostic, not a metric)
# ----------------------------------------------------------------------


def environment() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """``VmHWM`` of this process, in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float = 0.0,
    sizes: Optional[Tuple[int, ...]] = None,
    tamper=None,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Set up, time and check one workload; returns ``(values, diagnostics)``
    where ``values`` maps metric names to numbers plus ``attempted`` and
    ``failed``.  ``sizes`` overrides the ladder (the self-tests use tiny
    ones); ``tamper(result)`` corrupts results before they are checked."""
    import workloads
    from repro.parallel.engine import pool_stats
    from speed import Speedometer
    from tracer import Tracer

    sizes = tuple(sizes or workload.sizes)
    diag: Dict[str, Any] = {"workload": workload.name, "seed": seed,
                            "seconds": seconds, "trace": int(trace),
                            "sizes": list(sizes), "env": environment()}
    diag["loadavg_before"] = list(os.getloadavg())
    speed = Speedometer()
    diag["calibration_ms_before"] = speed.sample(5)

    started = time.perf_counter()
    workload.warm_up()
    warm_s = time.perf_counter() - started
    reps = workloads.passes(seconds, workload.pass_seconds)
    builds: List[float] = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None
        gc.collect()
        speed.tick()
        started = time.perf_counter()
        inputs = workload.build(seed, reps, sizes, twins=trace)
        builds.append(time.perf_counter() - started)
    speed.tick()
    speed.sample(5)
    # set-up is scaled by the samples taken during set-up, the calls by
    # the samples of the whole run
    setup_scale = speed.scale()
    setup_s = import_s + warm_s + statistics.median(builds)
    diag.update(import_s=import_s, warm_up_s=warm_s, build_s=builds, reps=reps)

    tracer = Tracer() if trace else None
    gc.collect()
    gc.freeze()
    pools_before = pool_stats()
    loop_start = time.perf_counter()
    # the traced run times each cold input twice
    budget = DEADLINE_FACTOR * seconds * (2 if trace else 1)
    state = workload.run(inputs, seed, tracer, tamper, loop_start + budget,
                         speed.tick)
    diag["loop_s"] = time.perf_counter() - loop_start
    rss = peak_rss_mb()
    pools_after = pool_stats()
    workload.finish(inputs, state)
    gc.unfreeze()

    records = state.records
    failed = [r for r in records if not r.ok]
    diag["errors"] = [r.error for r in failed[:5]] + state.late_failures[:5]
    diag["loadavg_after"] = list(os.getloadavg())
    diag["calibration_ms_after"] = speed.sample(5)
    scale = speed.scale()
    diag.update(calibration_ms_median=speed.median_ms(),
                calibration_samples=len(speed.samples), scale=scale,
                setup_scale=setup_scale)
    top = len(sizes) - 1
    edges = [workload.edges(inputs, rung) for rung in range(len(sizes))]
    values: Dict[str, Any] = {
        "attempted": len(records),
        "failed": len(failed) + len(state.late_failures),
    }
    values["fail_rate"] = values["failed"] / max(1, values["attempted"])
    diag["fail_rate"] = values["fail_rate"]
    diag["samples_per_rung"] = [
        sum(1 for r in records if r.rung == rung and not r.traced)
        for rung in range(len(sizes))
    ]
    diag["edges_per_rung"] = edges

    if not trace:
        raw = end_to_end(records, edges, top, setup_s, rss,
                         planned=reps * len(sizes))
        diag["unscaled"] = {k: raw[k] for k in TIME_METRICS}
        values.update(raw)
        for key in TIME_METRICS:
            values[key] *= setup_scale if key == "setup_s" else scale
        diag["rung_p50_ms"] = [
            1000.0 * _median([r.seconds for r in records if r.rung == rung])
            for rung in range(len(sizes))
        ]
    else:
        # the exact outputs of the traced calls, to compare with an
        # untraced run of the same seed
        guard = guard_record([r for r in records if r.traced], top)
        diag["traced_colors"] = guard.colors if guard else 0
        diag["traced_rounds"] = guard.rounds if guard else 0
        layers = per_layer(workload, tracer, records, guard, state,
                           pools_before, pools_after)
        for key in layers:
            if key.endswith("_ms"):
                layers[key] *= scale
        values.update(layers)
    diag["verify_s"] = state.verify_s
    return values, diag


def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _p90(xs: List[float]) -> float:
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def _slope(xs: List[float], ys: List[float]) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    den = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / den


def guard_record(records, top):
    """The call whose ``colors`` and ``rounds`` are reported: the anchor
    call at the top rung, or (delta_stream has no anchor) the top-rung
    call that charged the most rounds."""
    top_ok = [r for r in records if r.ok and r.rung == top]
    anchors = [r for r in top_ok if r.anchor]
    if anchors:
        return anchors[0]
    return max(top_ok, key=lambda r: r.rounds, default=None)


def end_to_end(records, edges, top, setup_s, rss, planned) -> Dict[str, Any]:
    ok = [r for r in records if r.ok]
    top_times = [r.seconds for r in ok if r.rung == top]
    rung_medians = [
        _median([r.seconds for r in ok if r.rung == rung])
        for rung in range(len(edges))
    ]
    guard = guard_record(records, top)
    return {
        "wall_s": sum(r.seconds for r in records) * planned / len(records),
        "setup_s": setup_s,
        "call_p50_ms": 1000.0 * _median(top_times),
        "call_p90_ms": 1000.0 * _p90(top_times),
        "scaling_exp": _slope(edges, rung_medians)
        if all(t > 0 for t in rung_medians) else 0.0,
        "peak_rss_mb": rss,
        "colors": guard.colors if guard else 0,
        "rounds": guard.rounds if guard else 0,
    }


def _phase_metric(phase: str) -> str:
    key = phase.replace("(top)", "top").replace("/", ".").replace(" ", "_")
    key = key.lower()
    return f"local.rounds.{key if key in ROUND_PHASES else 'other'}"


def per_layer(workload, tracer, records, guard, state, pools_before,
              pools_after) -> Dict[str, Any]:
    from tracer import RESULT_COUNTERS

    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    out: Dict[str, Any] = {}
    for name in SPAN_MS:
        out[f"{name}_ms"] = tracer.inclusive_ms(name)
    out["graph.ball_calls"] = tracer.calls("graph.ball")
    for key, _count in RESULT_COUNTERS.values():
        out[key] = tracer.counts.get(key, 0)
    attempts = tracer.calls("core.augment")
    out["core.augment_calls"] = attempts
    out["core.augment_found_ratio"] = (
        (attempts - tracer.failures("core.augment")) / attempts
        if attempts else 0.0
    )

    for task, passes in PASS_NAMES.items():
        for name in passes:
            out[f"pipeline.{task}.{name}_ms"] = 0.0
    out["pipeline.other_ms"] = 0.0
    out["pipeline.engine_waves"] = 0
    for record in traced:
        for name, wall_ms, waves in record.passes:
            key = f"pipeline.{workload.task}.{name}_ms"
            out[key if key in out else "pipeline.other_ms"] += wall_ms
            out["pipeline.engine_waves"] += waves

    for phase in ROUND_PHASES + ("other",):
        out[f"local.rounds.{phase}"] = 0
    for phase, charged in (guard.phases if guard else {}).items():
        out[_phase_metric(phase)] += charged

    out["parallel.waves_dispatched"] = (
        pools_after["dispatches"] - pools_before["dispatches"]
    )
    out["parallel.pool_threads"] = pools_after["workers"]
    out["service.dirty_vertices"] = sum(r.dirty for r in traced)
    out["service.incremental_ratio"] = (
        sum(r.incremental for r in records) / len(records) if records else 0.0
    )
    out["verify.check_ms"] = 1000.0 * state.verify_s

    traced_s = sum(r.seconds for r in traced)
    untraced_s = sum(r.seconds for r in untraced)
    covered, rooted = tracer.coverage()
    in_layers, _ = tracer.coverage(layers_only=True)
    out["trace.wall_ms"] = 1000.0 * traced_s
    out["trace.calls"] = len(traced)
    out["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
    out["trace.coverage"] = covered / rooted if rooted else 0.0
    out["trace.layer_coverage"] = in_layers / rooted if rooted else 0.0
    out["trace.targets_missing"] = len(tracer.missing)
    return out


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def result_object(values: Dict[str, Any], spec: Dict[str, Any],
                  trace: bool) -> Dict[str, Any]:
    """The result object printed as the last line: every metric of the
    mode, with its unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    return {
        "correct": values["failed"] == 0,
        "attempted": values["attempted"],
        "failed": values["failed"],
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workloads = _import_library()
    import_s = time.perf_counter() - _START
    spec = load_spec()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    values, diag = measure(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds,
        bool(args.trace), import_s=import_s,
    )
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps(result_object(values, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
