"""repro.parallel — what the end-to-end benchmark still imports.

The library runs every wave serially and owns no worker pools;
:func:`pool_stats` survives only because ``perfbench`` reads it to fill
its ``parallel.*`` metrics (see :mod:`repro.parallel.engine`).
"""

from .engine import pool_stats

__all__ = ["pool_stats"]
