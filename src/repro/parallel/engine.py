"""Worker-pool statistics, kept for the end-to-end benchmark.

The library runs every wave serially, so there are no pools to report.
``perfbench/run.py`` imports :func:`pool_stats` to fill its
``parallel.waves_dispatched`` and ``parallel.pool_threads`` metrics,
which therefore read 0.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["pool_stats"]


def pool_stats() -> Dict[str, int]:
    """``{"pools": 0, "workers": 0, "dispatches": 0}``: the library
    owns no worker pools."""
    return {"pools": 0, "workers": 0, "dispatches": 0}
