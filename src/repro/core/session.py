"""Snapshot-reusing sessions and the :func:`decompose` dispatcher.

The production story of this library is *repeated* decomposition
queries against one graph: decide a forest decomposition, then an
orientation, then a star-forest schedule, sweep epsilon for a latency
budget, ...  Before :class:`Session`, every call re-paid graph prep —
the CSR snapshot and, far worse, the exact arboricity ground truth
(Gabow–Westermann matroid machinery) and pseudoarboricity — because
each wrapper was a standalone function.

A ``Session(graph)`` owns that shared state:

* the cached CSR snapshot (delegating to
  :func:`~repro.graph.csr.snapshot_of`, so the cache is shared with
  every internal kernel path);
* memoized exact arboricity and pseudoarboricity;
* per-color sub-CSR adjacency extractions (:meth:`Session.sub_csr`),
  the sharding handle for color-class passes (digest-keyed,
  LRU-bounded);
* the :class:`~repro.parallel.plan.ShardPlan` the wave-engine
  backends consume (:meth:`Session.shard_plan`), plus
  :meth:`Session.wave_engine` handing out the shared
  :class:`~repro.parallel.engine.WaveEngine` over it (pool stats show
  up in :meth:`Session.cache_info` under ``"worker_pools"``);

all keyed by the graph's mutation fingerprint, so mutating the graph
transparently invalidates everything and N queries on an unchanged
graph pay prep once (see ``bench_session`` in
``benchmarks/bench_kernel.py`` for the measured effect).

Dispatch goes through the task registry: ``session.decompose(task=...)``
looks the task up, resolves the config (task-default epsilon, memoized
alpha, backend substrate), runs it, binds the graph/config to the
result, and optionally validates per ``config.validation``.  The
module-level :func:`decompose` is the one-shot convenience that makes a
throwaway session.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional, Tuple

import numpy as np

from ..errors import DecompositionError, GraphError, PaletteError, ValidationError
from ..graph.csr import (
    SHARDED_AUTO_CUTOFF,
    _BACKEND_ALIASES,
    mutation_fingerprint,
    snapshot_of,
)
from ..graph.shard import plan_of
from ..parallel.engine import engine_for, pool_stats
from ..local.rounds import RoundCounter, ensure_counter
from ..nashwilliams.arboricity import exact_arboricity
from ..nashwilliams.pseudoarboricity import exact_pseudoarboricity
from .config import DecompositionConfig
from .forest_decomposition import (
    FOREST_PIPELINE,
    forest_decomposition_algorithm2,
)
from .list_forest import LIST_FOREST_PIPELINE, list_forest_decomposition
from .orientation import (
    ORIENTATION_PIPELINE,
    PSEUDOFOREST_PIPELINE,
    orientation_decomposition,
    pseudoforest_decomposition_result,
)
from .registry import (
    BackendSpec,
    TaskSpec,
    available_backends,
    available_tasks,
    get_backend,
    get_task,
    register_backend,
    register_task,
)
from .results import DecompositionResult, OrientationResult, PseudoforestResult
from .star_forest import (
    LIST_STAR_FOREST_PIPELINE,
    STAR_FOREST_PIPELINE,
    StarForestResult,
    list_star_forest_decomposition_amr,
    star_forest_decomposition_amr,
)


class Session:
    """Cached graph-prep state shared by repeated decomposition queries.

    Parameters
    ----------
    graph:
        The :class:`~repro.graph.multigraph.MultiGraph` all queries run
        against.  Mutating it between queries is allowed — caches are
        fingerprint-keyed and rebuild on demand.
    config:
        Default :class:`~repro.core.config.DecompositionConfig` for
        :meth:`decompose` calls that do not pass their own.
    """

    #: LRU bound on cached per-color sub-CSR extractions; a long-lived
    #: session sweeping many distinct color classes stays bounded.
    SUB_CSR_CACHE_SIZE = 64

    def __init__(
        self, graph, config: Optional[DecompositionConfig] = None
    ) -> None:
        self.graph = graph
        self.config = config if config is not None else DecompositionConfig()
        self._memo: Dict[str, Tuple[Tuple[int, int, int], Any]] = {}
        self._sub_csr: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
        self._evictions: Dict[str, int] = {}
        #: per-pass execution totals accumulated across decompose()
        #: calls: pass name -> {"runs", "wall_ms", "engine_waves"}
        self._pass_totals: Dict[str, Dict[str, float]] = {}
        #: wall-clock seconds of the graph-prep phase of the most
        #: recent :meth:`prepare` (cache hits make this ~0)
        self.last_prep_seconds: float = 0.0
        #: task name -> WatchState of decompositions maintained by
        #: :meth:`apply_delta` (populated by :meth:`watch`)
        self._watches: "OrderedDict[str, Any]" = OrderedDict()
        #: DeltaReports of past :meth:`apply_delta` batches (bounded)
        self._delta_reports: list = []
        #: lazily created repro.service.delta.DeltaState
        self._delta_state: Any = None

    # ------------------------------------------------------------------
    # Fingerprint-keyed caches
    # ------------------------------------------------------------------

    def fingerprint(self) -> Tuple[int, int, int]:
        """The graph's current mutation fingerprint (cache key)."""
        return mutation_fingerprint(self.graph)

    def _memoized(self, key: str, compute):
        fingerprint = self.fingerprint()
        entry = self._memo.get(key)
        if entry is not None and entry[0] == fingerprint:
            self._hits[key] = self._hits.get(key, 0) + 1
            return entry[1]
        value = compute()
        self._memo[key] = (fingerprint, value)
        self._misses[key] = self._misses.get(key, 0) + 1
        return value

    def snapshot(self):
        """The graph's CSR snapshot (built once per fingerprint)."""
        return self._memoized("snapshot", lambda: snapshot_of(self.graph))

    def arboricity(self) -> int:
        """Memoized exact arboricity (Nash-Williams ground truth)."""
        return self._memoized(
            "arboricity", lambda: exact_arboricity(self.graph)
        )

    def pseudoarboricity(self) -> int:
        """Memoized exact pseudoarboricity."""
        return self._memoized(
            "pseudoarboricity", lambda: exact_pseudoarboricity(self.graph)
        )

    def sub_csr(self, eids: Iterable[int]):
        """Cached CSR adjacency ``(offsets, neighbors, edge ids)`` of
        the subgraph on ``eids`` — the per-color extraction reused
        across queries that walk the same color class (e.g. a forest
        decomposition's trees feeding a later orientation query).

        The cache key is a fixed-width digest of the sorted edge-id
        array (hashing the contiguous bytes once is far cheaper than
        building and hashing a ``frozenset`` of Python ints per
        lookup), and the cache is LRU-bounded at
        :attr:`SUB_CSR_CACHE_SIZE` entries — evictions show up in
        :meth:`cache_info`.
        """
        fingerprint = self.fingerprint()
        eid_array = np.unique(np.fromiter(eids, dtype=np.int64))
        digest = hashlib.blake2b(
            eid_array.tobytes(), digest_size=16
        ).digest()
        key = (fingerprint, int(eid_array.size), digest)
        cached = self._sub_csr.get(key)
        if cached is not None:
            self._sub_csr.move_to_end(key)
            self._hits["sub_csr"] = self._hits.get("sub_csr", 0) + 1
            return cached
        # A mutation invalidates every cached extraction at once; drop
        # the stale generation so a long-lived session on an evolving
        # graph doesn't accumulate dead arrays.
        stale = [k for k in self._sub_csr if k[0] != fingerprint]
        for k in stale:
            del self._sub_csr[k]
        arrays = self.snapshot().edge_subset_csr_arrays(eid_array)
        self._sub_csr[key] = arrays
        while len(self._sub_csr) > self.SUB_CSR_CACHE_SIZE:
            self._sub_csr.popitem(last=False)
            self._evictions["sub_csr"] = (
                self._evictions.get("sub_csr", 0) + 1
            )
        self._misses["sub_csr"] = self._misses.get("sub_csr", 0) + 1
        return arrays

    def shard_plan(self, num_shards: Optional[int] = None):
        """The :class:`~repro.parallel.plan.ShardPlan` for this graph's
        snapshot, fingerprint-cached like the snapshot itself (the
        plan is a pure function of the snapshot, so it invalidates
        exactly when the snapshot does).  Tasks running on the
        wave-engine backends reuse it across queries instead of
        re-balancing shards per call."""
        if num_shards is not None:
            return plan_of(self.snapshot(), num_shards)
        return self._memoized(
            "shard_plan", lambda: plan_of(self.snapshot())
        )

    def wave_engine(self, workers: int = 0):
        """A :class:`~repro.parallel.engine.WaveEngine` over this
        graph's cached snapshot and shard plan — the runtime the
        ``sharded`` / ``parallel`` backends execute their waves on.
        ``workers=0`` falls back to the session config's ``workers``
        knob (then to the auto sizing); worker count never changes
        results."""
        if workers == 0:
            workers = self.config.workers
        return engine_for(self.snapshot(), workers, self.shard_plan())

    def prepare(self) -> "Session":
        """Force the graph-prep phase now: snapshot + exact arboricity
        + pseudoarboricity.  Every task runs this implicitly; calling
        it up front moves the cost off the first query's latency.
        Records the elapsed wall-clock in :attr:`last_prep_seconds`.
        """
        start = time.perf_counter()
        self.snapshot()
        self.arboricity()
        self.pseudoarboricity()
        self.last_prep_seconds = time.perf_counter() - start
        return self

    def cache_info(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/eviction counts per cached computation, plus the
        process-wide wave-engine pool stats under ``"worker_pools"``
        (live pools, their total threads, waves dispatched to a pool —
        see :func:`repro.parallel.engine.pool_stats`)."""
        keys = set(self._hits) | set(self._misses) | set(self._evictions)
        info = {
            key: {
                "hits": self._hits.get(key, 0),
                "misses": self._misses.get(key, 0),
                "evictions": self._evictions.get(key, 0),
            }
            for key in sorted(keys)
        }
        info["worker_pools"] = pool_stats()
        info["passes"] = {
            name: dict(totals)
            for name, totals in sorted(self._pass_totals.items())
        }
        if self._delta_state is not None:
            delta = self._delta_state.oracle.stats()
            delta["seq"] = self._delta_state.seq
            delta["watches"] = len(self._watches)
            info["delta"] = delta
        return info

    def _record_passes(self, result: "DecompositionResult") -> None:
        """Fold a result's per-pass records into the session totals
        (surfaced by :meth:`cache_info` under ``"passes"``)."""
        passes = getattr(getattr(result, "stats", None), "passes", None)
        if not passes:
            return
        for record in passes:
            totals = self._pass_totals.setdefault(
                record.name,
                {"runs": 0, "wall_ms": 0.0, "engine_waves": 0},
            )
            totals["runs"] += 1
            totals["wall_ms"] += record.wall_ms
            totals["engine_waves"] += record.engine_waves

    # ------------------------------------------------------------------
    # Config resolution
    # ------------------------------------------------------------------

    def resolve_alpha(self, config: DecompositionConfig) -> int:
        """``config.alpha`` when given, else the memoized exact value."""
        if config.alpha is not None:
            return config.alpha
        return self.arboricity()

    def substrate(self, config: DecompositionConfig) -> str:
        """The concrete substrate string for ``config.backend``,
        resolved through the backend registry."""
        return get_backend(config.backend).substrate_for(self.graph)

    def resolve_schedule(self, config: Optional[DecompositionConfig] = None) -> str:
        """The concrete pass-DAG schedule (``"serial"`` or
        ``"concurrent"``) that ``config.schedule`` resolves to for this
        graph — the same gate the pipelines apply internally."""
        from ..pipeline import resolve_schedule as _resolve

        cfg = config if config is not None else self.config
        return _resolve(self.graph, cfg.schedule)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def decompose(
        self,
        task: str = "forest",
        config: Optional[DecompositionConfig] = None,
        rounds: Optional[RoundCounter] = None,
        **kwargs: Any,
    ) -> DecompositionResult:
        """Run a registered task on this session's graph.

        ``config`` falls back to the session default; task-specific
        kwargs (``palettes``, ``method``, ``splitting``, ...) may come
        from ``config.options`` or be passed directly (direct wins).
        Returns a :class:`~repro.core.results.DecompositionResult`
        bound to the graph and config; validated per
        ``config.validation``.
        """
        spec = get_task(task)
        cfg = config if config is not None else self.config
        if not isinstance(cfg, DecompositionConfig):
            raise ValidationError(
                f"config must be a DecompositionConfig, got {type(cfg).__name__}"
            )
        cfg = cfg.with_defaults(spec.default_epsilon)
        # registry-level checks happen here, once, for every task —
        # including third-party registrations
        get_backend(cfg.backend)
        if spec.simple_only and not self.graph.is_simple():
            raise GraphError(
                f"task {spec.name!r} needs a simple graph "
                "(parallel edges present)"
            )
        merged: Dict[str, Any] = dict(cfg.options)
        merged.update(kwargs)
        result = spec.runner(self, cfg, rounds=rounds, **merged)
        if result.graph is None:
            result.graph = self.graph
        result.config = cfg
        self._record_passes(result)
        if spec.needs_palettes and result.palettes is None:
            result.palettes = merged.get("palettes")
        if cfg.validation != "none":
            result.validate(level=cfg.validation)
        return result

    # ------------------------------------------------------------------
    # Incremental maintenance (the delta engine, repro.service.delta)
    # ------------------------------------------------------------------

    def watch(
        self,
        task: str = "forest",
        config: Optional[DecompositionConfig] = None,
        **kwargs: Any,
    ) -> DecompositionResult:
        """Run ``task`` once and keep its result maintained: every
        subsequent :meth:`apply_delta` batch refreshes it (repairing
        the dirty cascade incrementally when the task supports it,
        recomputing otherwise) so :meth:`current` always equals a
        fresh ``decompose`` on the mutated graph — bit-identically.
        Re-watching a task replaces its knobs."""
        from ..service.delta import watch_task

        return watch_task(self, task, config, kwargs)

    def unwatch(self, task: Optional[str] = None) -> None:
        """Stop maintaining ``task`` (every watched task when None)."""
        if task is None:
            self._watches.clear()
        else:
            self._watches.pop(task, None)

    def watched(self) -> Tuple[str, ...]:
        """Names of the tasks currently maintained, in watch order."""
        return tuple(self._watches)

    def current(self, task: str) -> DecompositionResult:
        """The maintained result of a watched task (no recompute)."""
        try:
            return self._watches[task].result
        except KeyError:
            raise ValidationError(
                f"task {task!r} is not watched; call "
                f"session.watch({task!r}, ...) first"
            ) from None

    def apply_delta(
        self,
        inserts: Iterable[Tuple[int, int]] = (),
        deletes: Iterable[int] = (),
        config: Optional[DecompositionConfig] = None,
    ):
        """Mutate the graph by one batch of edge edits and refresh
        every watched decomposition.

        ``inserts`` is an iterable of ``(u, v)`` endpoint pairs (edge
        ids are assigned by the graph, reported in the returned
        :class:`~repro.service.delta.DeltaReport`); ``deletes`` an
        iterable of edge ids.  The batch is validated up front and
        applied atomically — a bad edit raises and leaves the graph
        untouched.

        **Contract:** after the call, :meth:`current` of every watched
        task is bit-identical (same coloring/orientation content, same
        bound) to running the task from scratch on the mutated graph.
        ``config.delta_mode`` / ``config.delta_threshold`` (from the
        per-call ``config``, falling back to the session default)
        choose between incremental repair and full recompute; they
        never change results, only latency.
        """
        from ..service.delta import apply_delta as _apply_delta

        return _apply_delta(
            self, tuple(inserts), tuple(deletes), config=config
        )

    def content_digest(self) -> str:
        """A blake2b digest of the graph's full content (vertex set +
        edge multiset, ids included), maintained in O(|delta|) per
        :meth:`apply_delta` batch instead of rehashing the edge list;
        out-of-band mutations trigger one full resync."""
        from ..service.delta import content_digest as _content_digest

        return _content_digest(self)

    def delta_reports(self) -> Tuple[Any, ...]:
        """DeltaReports of the :meth:`apply_delta` batches so far."""
        return tuple(self._delta_reports)


def decompose(
    graph,
    task: str = "forest",
    config: Optional[DecompositionConfig] = None,
    session: Optional[Session] = None,
    rounds: Optional[RoundCounter] = None,
    **kwargs: Any,
) -> DecompositionResult:
    """One-shot dispatcher: ``repro.decompose(graph, task="forest")``.

    Equivalent to ``Session(graph).decompose(task, ...)``; pass an
    existing ``session`` to reuse its caches (or call the method on the
    session directly).  See :class:`Session` for the repeated-query
    workflow.
    """
    if session is None:
        session = Session(graph)
    elif session.graph is not graph:
        raise ValidationError("session is bound to a different graph")
    return session.decompose(task, config=config, rounds=rounds, **kwargs)


# ----------------------------------------------------------------------
# Built-in task runners
# ----------------------------------------------------------------------


def _run_forest(
    session: Session,
    config: DecompositionConfig,
    rounds: Optional[RoundCounter] = None,
    radius: Optional[int] = None,
    search_radius: Optional[int] = None,
) -> DecompositionResult:
    return forest_decomposition_algorithm2(
        session.graph,
        config.epsilon,
        alpha=session.resolve_alpha(config),
        cut_rule=config.cut_rule,
        carve_rule=config.carve_rule,
        diameter_mode=config.diameter_mode,
        seed=config.seed,
        rounds=rounds,
        radius=radius,
        search_radius=search_radius,
        backend=session.substrate(config),
        workers=config.workers,
        schedule=config.schedule,
    )


def _run_list_forest(
    session: Session,
    config: DecompositionConfig,
    palettes=None,
    splitting: str = "cluster",
    reserve_probability=None,
    rounds: Optional[RoundCounter] = None,
    radius: Optional[int] = None,
    search_radius: Optional[int] = None,
) -> DecompositionResult:
    if palettes is None:
        raise PaletteError("task 'list_forest' requires palettes=")
    return list_forest_decomposition(
        session.graph,
        palettes,
        config.epsilon,
        alpha=session.resolve_alpha(config),
        splitting=splitting,
        cut_rule=config.cut_rule,
        reserve_probability=reserve_probability,
        seed=config.seed,
        rounds=rounds,
        radius=radius,
        search_radius=search_radius,
        backend=session.substrate(config),
        workers=config.workers,
        schedule=config.schedule,
    )


def _run_star_forest(
    session: Session,
    config: DecompositionConfig,
    rounds: Optional[RoundCounter] = None,
    max_lll_rounds: int = 60,
) -> DecompositionResult:
    return star_forest_decomposition_amr(
        session.graph,
        config.epsilon,
        alpha=session.resolve_alpha(config) if session.graph.m else None,
        seed=config.seed,
        rounds=rounds,
        max_lll_rounds=max_lll_rounds,
        backend=session.substrate(config),
        workers=config.workers,
        schedule=config.schedule,
    )


def _run_list_star_forest(
    session: Session,
    config: DecompositionConfig,
    palettes=None,
    method: str = "amr",
    rounds: Optional[RoundCounter] = None,
    max_lll_rounds: int = 200,
) -> DecompositionResult:
    if palettes is None:
        raise PaletteError("task 'list_star_forest' requires palettes=")
    if method == "amr":
        return list_star_forest_decomposition_amr(
            session.graph,
            palettes,
            config.epsilon,
            alpha=session.resolve_alpha(config) if session.graph.m else None,
            seed=config.seed,
            rounds=rounds,
            max_lll_rounds=max_lll_rounds,
            schedule=config.schedule,
        )
    if method == "hpartition":
        from ..decomposition.lsfd import (
            list_star_forest_decomposition as lsfd_theorem23,
        )
        from .algorithm_stats import StarForestStats

        counter = ensure_counter(rounds)
        pseudo = session.pseudoarboricity()
        coloring = lsfd_theorem23(
            session.graph, palettes, max(1, pseudo), 0.5, counter,
            backend=session.substrate(config), workers=config.workers,
        )
        colors_used = len(set(coloring.values()))
        return StarForestResult(
            coloring, colors_used, counter, StarForestStats(),
            graph=session.graph,
        )
    raise DecompositionError(f"unknown LSFD method {method!r}")


def _run_orientation(
    session: Session,
    config: DecompositionConfig,
    method: str = "augmentation",
    rounds: Optional[RoundCounter] = None,
    pseudoarboricity: Optional[int] = None,
) -> OrientationResult:
    # hpartition ignores alpha (it peels by pseudoarboricity), so only
    # the alpha-consuming methods pull the session's memoized value.
    # A caller-pinned pseudoarboricity (config.options or kwarg) skips
    # the exact flow computation entirely — the knob the delta engine
    # and the serve daemon lean on for large evolving graphs.
    return orientation_decomposition(
        session.graph,
        config.epsilon,
        alpha=config.alpha if method == "hpartition"
        else session.resolve_alpha(config),
        method=method,
        seed=config.seed,
        rounds=rounds,
        backend=session.substrate(config),
        workers=config.workers,
        pseudoarboricity=(
            pseudoarboricity if pseudoarboricity is not None
            else session.pseudoarboricity()
        )
        if method == "hpartition" else None,
        shard_plan=session.shard_plan()
        if method == "hpartition"
        and session.substrate(config) in ("sharded", "parallel")
        else None,
        schedule=config.schedule,
    )


def _run_pseudoforest(
    session: Session,
    config: DecompositionConfig,
    method: str = "augmentation",
    rounds: Optional[RoundCounter] = None,
    pseudoarboricity: Optional[int] = None,
) -> PseudoforestResult:
    return pseudoforest_decomposition_result(
        session.graph,
        config.epsilon,
        alpha=config.alpha if method == "hpartition"
        else session.resolve_alpha(config),
        method=method,
        seed=config.seed,
        rounds=rounds,
        backend=session.substrate(config),
        workers=config.workers,
        pseudoarboricity=(
            pseudoarboricity if pseudoarboricity is not None
            else session.pseudoarboricity()
        )
        if method == "hpartition" else None,
        shard_plan=session.shard_plan()
        if method == "hpartition"
        and session.substrate(config) in ("sharded", "parallel")
        else None,
        schedule=config.schedule,
    )


# ----------------------------------------------------------------------
# Built-in registrations
# ----------------------------------------------------------------------

register_task(TaskSpec(
    name="forest",
    runner=_run_forest,
    pipeline=FOREST_PIPELINE,
    description="(1+eps)alpha forest decomposition of a multigraph",
    citation="Theorem 4.6",
    default_epsilon=0.5,
    uses=("arboricity",),
))
register_task(TaskSpec(
    name="list_forest",
    runner=_run_list_forest,
    pipeline=LIST_FOREST_PIPELINE,
    description="(1+eps)alpha list-forest decomposition",
    citation="Theorem 4.10",
    default_epsilon=0.5,
    needs_palettes=True,
    uses=("arboricity",),
))
register_task(TaskSpec(
    name="star_forest",
    runner=_run_star_forest,
    pipeline=STAR_FOREST_PIPELINE,
    description="(1+O(eps))alpha star-forest decomposition (simple graphs)",
    citation="Theorem 5.4(1)",
    default_epsilon=0.25,
    simple_only=True,
    uses=("arboricity",),
))
register_task(TaskSpec(
    name="list_star_forest",
    runner=_run_list_star_forest,
    pipeline=LIST_STAR_FOREST_PIPELINE,
    description="list star-forest decomposition (simple graphs)",
    citation="Theorem 5.4(2) / Theorem 2.3",
    default_epsilon=0.05,
    simple_only=True,
    needs_palettes=True,
    uses=("arboricity", "pseudoarboricity"),
))
register_task(TaskSpec(
    name="orientation",
    runner=_run_orientation,
    pipeline=ORIENTATION_PIPELINE,
    description="(1+eps)alpha low out-degree orientation",
    citation="Corollary 1.1",
    default_epsilon=0.5,
    uses=("arboricity", "pseudoarboricity"),
))
register_task(TaskSpec(
    name="pseudoforest",
    runner=_run_pseudoforest,
    pipeline=PSEUDOFOREST_PIPELINE,
    description="(1+eps)alpha pseudoforest decomposition",
    citation="Corollary 1.1 companion",
    default_epsilon=0.5,
    uses=("arboricity", "pseudoarboricity"),
))

register_backend(BackendSpec(
    name="auto",
    description="per-callsite choice: kernel for large graphs and CSR "
    "inputs, dict reference for small ones",
    capabilities=frozenset({"peeling", "traversal", "color_bfs"}),
))
register_backend(BackendSpec(
    name="dict",
    description="dict-of-dicts reference paths (byte-identical goldens)",
    capabilities=frozenset({"peeling", "traversal", "color_bfs"}),
))
register_backend(BackendSpec(
    name="csr",
    description="flat-array CSR kernel (vectorized peeling/traversal)",
    capabilities=frozenset({"peeling", "traversal", "color_bfs"}),
))
register_backend(BackendSpec(
    name="sharded",
    description="multi-worker sharded peeling waves over the CSR "
    "kernel (bit-identical to csr for every worker count); "
    f"auto-selects at n >= {SHARDED_AUTO_CUTOFF}, csr below",
    capabilities=frozenset({"peeling", "traversal", "color_bfs"}),
    resolve=lambda graph: (
        "sharded" if graph.n >= SHARDED_AUTO_CUTOFF else "csr"
    ),
))
register_backend(BackendSpec(
    name="parallel",
    description="the full wave-engine substrate: sharded peeling "
    "waves plus engine-backed BFS paths (ball carving, color-class "
    "scans, diameter reduction), bit-identical to csr for every "
    f"worker count; auto-selects at n >= {SHARDED_AUTO_CUTOFF}, "
    "csr below",
    capabilities=frozenset({"peeling", "traversal", "color_bfs"}),
    resolve=lambda graph: (
        "parallel" if graph.n >= SHARDED_AUTO_CUTOFF else "csr"
    ),
))
for _alias, _target in _BACKEND_ALIASES.items():
    register_backend(dataclasses.replace(
        get_backend(_target), name=_alias, description=f"alias of {_target!r}"
    ))

__all__ = [
    "Session",
    "decompose",
    "available_tasks",
    "available_backends",
    "get_task",
    "get_backend",
    "register_task",
    "register_backend",
]
