"""Spans around the calls into each layer, recorded from outside ``src/``.

The traced run swaps a timing wrapper into the names each layer's
callers look up (a module attribute, a class attribute, or the task
registry's delta hook), runs the workload, and puts every original back.
Nothing in the library is edited, so the untraced run measures exactly
the shipped code.

A span is ``(name, start, end, parent)``.  A layer metric is the
inclusive time of the outermost span of that name (a re-entrant call is
not counted twice); ``coverage`` is the share of each root call's wall
time covered by the spans inside it, with or without the pipeline passes.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (owner, attribute, span name).  ``owner`` is a dotted module path,
#: optionally followed by ``:Class``; the attribute is replaced on that
#: object, which is where the callers of the layer resolve it.
ATTRIBUTE_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.graph.csr:CSRGraph", "from_multigraph", "graph.snapshot"),
    ("repro.graph.csr:CSRGraph", "neighborhood_set", "graph.ball"),
    ("repro.core.forest_decomposition", "power_graph", "graph.power_graph"),
    # exact_arboricity and exact_pseudoarboricity are imported by name into
    # every module that calls them, so each of those names is patched;
    # orientation imports exact_arboricity lazily from its own module.
    ("repro.nashwilliams.arboricity", "exact_arboricity",
     "nashwilliams.arboricity"),
    ("repro.core.session", "exact_arboricity", "nashwilliams.arboricity"),
    ("repro.core.star_forest", "exact_arboricity", "nashwilliams.arboricity"),
    ("repro.core.forest_decomposition", "exact_arboricity",
     "nashwilliams.arboricity"),
    ("repro.core.list_forest", "exact_arboricity", "nashwilliams.arboricity"),
    ("repro.core.session", "exact_pseudoarboricity",
     "nashwilliams.pseudoarboricity"),
    ("repro.core.star_forest", "exact_pseudoarboricity",
     "nashwilliams.pseudoarboricity"),
    ("repro.core.forest_decomposition", "exact_pseudoarboricity",
     "nashwilliams.pseudoarboricity"),
    ("repro.core.orientation", "exact_pseudoarboricity",
     "nashwilliams.pseudoarboricity"),
    ("repro.core.list_forest", "exact_pseudoarboricity",
     "nashwilliams.pseudoarboricity"),
    ("repro.core.star_forest", "orientation_exists",
     "nashwilliams.t_orientation"),
    ("repro.core.star_forest", "_sf_vertex_matching", "core.vertex_matching"),
    ("repro.core.star_forest", "hopcroft_karp", "graph.matching"),
    ("repro.graph.multigraph:MultiGraph", "edge_subgraph",
     "graph.edge_subgraph"),
    ("repro.core.star_forest", "star_forest_decomposition_via_hpartition",
     "decomposition.hpartition_star_forest"),
    ("repro.core.forest_decomposition", "network_decomposition",
     "decomposition.network_decomposition"),
    ("repro.core.forest_decomposition", "h_partition",
     "decomposition.h_partition"),
    ("repro.core.orientation", "h_partition", "decomposition.h_partition"),
    ("repro.core.star_forest", "h_partition", "decomposition.h_partition"),
    ("repro.core.forest_decomposition", "augment_edge", "core.augment"),
    ("repro.pipeline.scheduler:Scheduler", "_execute_pass", "pipeline.pass"),
    ("repro.service.delta", "patched_snapshot", "service.patch_snapshot"),
    ("repro.service.delta", "repair_waves", "service.repair_waves"),
)

#: Tasks whose registered incremental refresher is wrapped as
#: ``service.refresh`` (swapped through ``set_task_delta``).
REFRESH_TASKS: Tuple[str, ...] = ("orientation",)


def _count_power_edges(result: Any) -> int:
    edges = getattr(result, "num_edges", None)
    return int(edges if edges is not None else result.m)


def _count_clusters(result: Any) -> int:
    return sum(len(clusters) for clusters in result.classes)


def _count_waves(result: Any) -> int:
    return int(result.num_classes)


#: span name -> (counter name, f(result) -> int): work counted where it
#: happens, summed over the outermost spans.
RESULT_COUNTERS: Dict[str, Tuple[str, Callable[[Any], int]]] = {
    "graph.power_graph": ("graph.power_graph_edges", _count_power_edges),
    "decomposition.network_decomposition": (
        "decomposition.clusters", _count_clusters,
    ),
    "decomposition.h_partition": (
        "decomposition.h_partition_waves", _count_waves,
    ),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "outermost", "failed")

    def __init__(self, name: str, parent: Optional["Span"], outermost: bool):
        self.name = name
        self.parent = parent
        self.outermost = outermost
        self.start = time.perf_counter()
        self.end = self.start
        self.failed = False


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self.missing: List[str] = []
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        outermost = all(open_span.name != name for open_span in stack)
        record = Span(name, stack[-1] if stack else None, outermost)
        stack.append(record)
        try:
            yield record
        except BaseException:
            record.failed = True
            raise
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None and record.outermost:
                key, count = counter
                self.counts[key] = self.counts.get(key, 0) + count(result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Swap every wrapper in, and every original back on exit.

        A target that no longer exists is skipped and listed in
        :attr:`missing`, so a refactor that renames a layer shows up as
        ``trace.targets_missing`` instead of breaking the run.
        """
        from repro.core.registry import get_task, set_task_delta

        restore: List[Callable[[], None]] = []
        self.missing = []
        try:
            for owner_path, attribute, name in ATTRIBUTE_TARGETS:
                owner = _resolve_owner(owner_path)
                raw = None if owner is None else vars(owner).get(attribute)
                if raw is None:
                    self.missing.append(f"{owner_path}.{attribute}")
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(name, raw.__func__))
                else:
                    patched = self.wrap(name, raw)
                setattr(owner, attribute, patched)
                restore.append(
                    lambda owner=owner, attribute=attribute, raw=raw:
                    setattr(owner, attribute, raw)
                )
            for task in REFRESH_TASKS:
                refresher = get_task(task).delta
                if refresher is None:
                    self.missing.append(f"refresher:{task}")
                    continue
                set_task_delta(task, self.wrap("service.refresh", refresher))
                restore.append(
                    lambda task=task, refresher=refresher:
                    set_task_delta(task, refresher)
                )
            yield self
        finally:
            for undo in reversed(restore):
                undo()

    # -- reading -----------------------------------------------------------

    def inclusive_ms(self, name: str) -> float:
        return 1000.0 * sum(
            s.end - s.start for s in self.spans if s.name == name and s.outermost
        )

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name and s.outermost)

    def failures(self, name: str) -> int:
        return sum(
            1 for s in self.spans if s.name == name and s.outermost and s.failed
        )

    def coverage(self, root: str = "call",
                 layers_only: bool = False) -> Tuple[float, float]:
        """``(covered seconds, root seconds)`` summed over root spans: the
        union of each root's descendant spans, clipped to the root.  With
        ``layers_only`` the pipeline pass spans do not count, so only the
        layer wrappers' own time is covered."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if layers_only and s.name == "pipeline.pass":
                continue
            top = s.parent
            while top is not None and top.parent is not None:
                top = top.parent
            if top is not None and top.name == root:
                children.setdefault(id(top), []).append((s.start, s.end))
        covered = total = 0.0
        for s in self.spans:
            if s.name != root:
                continue
            total += s.end - s.start
            edge = s.start
            for start, end in sorted(children.get(id(s), ())):
                start, end = max(start, edge), min(end, s.end)
                if end > start:
                    covered += end - start
                    edge = end
        return covered, total


def _resolve_owner(path: str) -> Optional[Any]:
    module_path, _, class_name = path.partition(":")
    try:
        owner = importlib.import_module(module_path)
    except ImportError:
        return None
    if class_name:
        owner = getattr(owner, class_name, None)
    return owner
