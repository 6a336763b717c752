"""repro.parallel — order-free reconcile primitives.

:func:`resolve_claims` and :func:`segment_kth_largest` resolve a batch
of proposals into an answer that does not depend on proposal order
(see :mod:`repro.parallel.bfs`).  :func:`pool_stats` survives only for
the end-to-end benchmark (see :mod:`repro.parallel.engine`).
"""

from .bfs import resolve_claims, segment_kth_largest
from .engine import pool_stats

__all__ = [
    "pool_stats",
    "resolve_claims",
    "segment_kth_largest",
]
