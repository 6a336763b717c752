"""repro — reproduction of Harris, Su & Vu (PODC 2021):
"On the Locality of Nash-Williams Forest Decomposition and
Star-Forest Decomposition".

API tour (full reference: ``docs/api.md``)
------------------------------------------

The unified entry point is :func:`repro.decompose`: one dispatcher,
six registered tasks, one shared config::

    import repro

    graph = repro.MultiGraph.with_vertices(8)
    ...
    config = repro.DecompositionConfig(epsilon=0.5, seed=7)
    result = repro.decompose(graph, task="forest", config=config)
    result.validate()                  # independent checker
    result.forests()                   # color classes
    result.coloring_array()            # CSR-aligned numpy view
    result.to_json()                   # structured output

Tasks: ``"forest"`` (Theorem 4.6), ``"list_forest"`` (Theorem 4.10),
``"star_forest"`` / ``"list_star_forest"`` (Section 5),
``"pseudoforest"`` / ``"orientation"`` (Corollary 1.1).

For repeated queries against one graph, a :class:`repro.Session` caches
the graph-prep phase — CSR snapshot, exact arboricity (the
Gabow–Westermann ground truth) and pseudoarboricity — across calls::

    session = repro.Session(graph)
    fd = session.decompose("forest", config)
    orient = session.decompose("orientation", config)   # prep reused

Key pieces:

* :class:`repro.MultiGraph` — the multigraph input type; every
  algorithm runs on its flat-array CSR snapshot.
* :func:`repro.decompose` / :class:`repro.Session` — the unified
  dispatcher and the snapshot-reusing session.
* :class:`repro.DecompositionConfig` — shared knobs (epsilon, alpha,
  seed, diameter_mode, cut_rule, validation), JSON
  round-trippable.
* :func:`repro.register_task` — the extension seam for new tasks.
* Legacy-shaped wrappers, all registry-backed:
  :func:`repro.forest_decomposition`,
  :func:`repro.list_forest_decomposition`,
  :func:`repro.star_forest_decomposition`,
  :func:`repro.list_star_forest_decomposition`,
  :func:`repro.pseudoforest_decomposition`,
  :func:`repro.low_outdegree_orientation`.
* :func:`repro.exact_arboricity` / :func:`repro.exact_forest_decomposition`
  — centralized Nash-Williams ground truth (Gabow–Westermann style).
* :mod:`repro.verify` — independent validity checkers.

The CLI mirrors the library: ``python -m repro decompose graph.txt
--task forest --json``.
"""

from .errors import (
    AugmentationError,
    ConvergenceError,
    DecompositionError,
    GraphError,
    LocalModelError,
    PaletteError,
    RegistryError,
    ReproError,
    ValidationError,
)
from .graph import MultiGraph

__version__ = "1.1.0"

# Names resolved lazily from repro.core.api (see __getattr__): the
# unified API plus the task wrappers.  Keeping them lazy avoids import
# cycles and keeps bare ``import repro`` fast; listing them here makes
# ``dir(repro)`` and tab completion honest.
_API_EXPORTS = (
    "decompose",
    "describe",
    "Session",
    "DecompositionConfig",
    "DecompositionResult",
    "register_task",
    "available_tasks",
    "forest_decomposition",
    "list_forest_decomposition",
    "star_forest_decomposition",
    "list_star_forest_decomposition",
    "pseudoforest_decomposition",
    "low_outdegree_orientation",
    "barenboim_elkin_forest_decomposition",
    "exact_arboricity",
    "exact_forest_decomposition",
    "exact_pseudoarboricity",
    "algorithm2",
    "two_coloring_star_forests",
)

_SUBMODULES = (
    "core",
    "decomposition",
    "nashwilliams",
    "local",
    "parallel",
    "pipeline",
    "service",
    "verify",
    "graph",
)

__all__ = [
    "MultiGraph",
    *_API_EXPORTS,
    "ReproError",
    "GraphError",
    "DecompositionError",
    "ValidationError",
    "AugmentationError",
    "PaletteError",
    "ConvergenceError",
    "RegistryError",
    "LocalModelError",
    "__version__",
]


def __getattr__(name):
    """Lazy re-exports of the high-level API (avoids import cycles and
    keeps ``import repro`` fast)."""
    import importlib

    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    api = importlib.import_module(".core.api", __name__)
    try:
        value = getattr(api, name)
    except AttributeError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    return value


def __dir__():
    """Make ``dir(repro)`` / tab completion list the lazy exports too."""
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
