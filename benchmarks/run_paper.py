"""Run every paper-reproduction bench once, without pytest-benchmark.

Calls each ``bench_*`` function of every ``benchmarks/bench_*.py``
except ``bench_kernel.py`` (the substrate speedup gates, run by
``make bench-kernel``) with ``benchmark=None``, so each experiment runs
once, asserts its claim's shape and archives its table under
``benchmarks/results/``.  Prints one timing line per bench and exits
non-zero if any bench fails.

Usage (what ``make bench-paper`` runs)::

    PYTHONPATH=src python benchmarks/run_paper.py
"""

from __future__ import annotations

import glob
import importlib
import inspect
import os
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SKIPPED = {"bench_kernel"}


def paper_benches():
    """``(module name, function name, function)`` for every paper bench."""
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)  # the benches import ``harness``
    for path in sorted(glob.glob(os.path.join(BENCH_DIR, "bench_*.py"))):
        module_name = os.path.splitext(os.path.basename(path))[0]
        if module_name in SKIPPED:
            continue
        module = importlib.import_module(module_name)
        for name, func in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("bench_") and func.__module__ == module_name:
                yield module_name, name, func


def main() -> int:
    failures = []
    ran = 0
    for module_name, name, func in paper_benches():
        label = f"{module_name}::{name}"
        ran += 1
        start = time.perf_counter()
        try:
            func(benchmark=None)
        except Exception:  # report every failing bench, not just the first
            traceback.print_exc()
            failures.append(label)
            status = "FAILED"
        else:
            status = "ok"
        print(f"{label}: {status} in {time.perf_counter() - start:.2f} s")
    print(f"{ran - len(failures)} of {ran} paper benches passed")
    if failures:
        print("failed: " + ", ".join(failures))
    return 1 if failures or not ran else 0


if __name__ == "__main__":
    sys.exit(main())
