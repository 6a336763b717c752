"""Shared benchmark harness.

Every bench reproduces one table or figure of the paper: it runs the
experiment, asserts the claim's *shape* (who wins, by what factor,
where thresholds sit), prints the paper-style rows, and archives them
under ``benchmarks/results/`` so EXPERIMENTS.md can quote stable
artifacts.  Timing itself is delegated to pytest-benchmark when it is
installed; ``run_paper.py`` runs every bench without it.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# Timing-snapshot mode: record timings and emit JSON, but skip hard
# speedup asserts (shared CI runners have noisy clocks).  See
# benchmarks/README.md for the consumer contract.
SNAPSHOT_MODE = os.environ.get("BENCH_SNAPSHOT", "") not in ("", "0")


def format_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Fixed-width table, paper style."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def emit(name: str, text: str) -> None:
    """Print a result block and archive it under benchmarks/results/."""
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def emit_json(name: str, payload: dict) -> str:
    """Archive a machine-readable result under benchmarks/results/.

    ``name`` becomes ``benchmarks/results/<name>.json``; CI uploads
    every ``BENCH_*.json`` as a build artifact so the perf trajectory
    is trackable PR-over-PR (schema: benchmarks/README.md).
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def forest_workload(n: int, alpha: int, seed: int, simple: bool = False):
    """Union of ``alpha`` random spanning forests: arboricity exactly
    ``alpha`` at full density (the benches' canonical known-α input)."""
    from repro.graph.generators import union_of_random_forests

    return union_of_random_forests(n, alpha, seed=seed, simple=simple)


def once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing.

    Heavy experiments cannot afford pytest-benchmark's auto-calibrated
    repetition; ``pedantic`` with one round keeps the timing column
    honest without re-running the experiment dozens of times.  With
    ``benchmark=None`` (``make bench-paper``, no pytest-benchmark
    installed) ``func`` simply runs once, untimed.
    """
    if benchmark is None:
        return func()
    return benchmark.pedantic(func, rounds=1, iterations=1)
