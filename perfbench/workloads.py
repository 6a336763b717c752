"""The benchmark's workloads: seeded inputs, timed calls, independent checks.

Three workloads are cold calls (a fresh graph object and a fresh
``Session`` per call, so no snapshot or ground-truth cache survives) over
a doubling ladder of sizes.  One is a closed-loop stream of
``apply_delta`` batches from one client against watched sessions, over
a ladder of graph sizes.

Every timed call is checked outside its timed region by code that
shares nothing with the kernels: the ``repro.verify`` validators, the
(1+eps)alpha color cap and the out-degree cap, with alpha and the
pseudoarboricity known from how the inputs are built.
"""

from __future__ import annotations

import gc
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

import repro
from repro.graph.generators import (
    preferential_attachment,
    union_of_random_forests,
)
from repro.verify import validators

#: Preferential attachment adds each vertex with this many edges, so its
#: arboricity and pseudoarboricity are at most 3; with m = 3n - 6 the
#: Nash-Williams density bound ceil(m / (n - 1)) makes both exactly 3.
PA_OUT_DEGREE = 3
#: Star-forest inputs are unions of this many random spanning forests.
STAR_FORESTS = 6
FOREST_EPSILON = 0.5
ORIENT_EPSILON = 0.5
#: Above the task default of 0.25 on purpose: at 0.25 the number of LLL
#: resampling rounds varies from 1 to 6 with the seed, and each round
#: re-runs every H_v matching, so per-call time varied 12% (IQR) between
#: inputs; at 0.5 no input needs a resample and the matching, flow and
#: leftover layers are all still exercised.
STAR_EPSILON = 0.5
#: Each delta batch inserts and deletes this many edges.
DELTA_EDITS = 8


class CheckFailed(Exception):
    """An output broke a guarantee the independent check re-derives."""


#: Repetition 0 of a cold-call ladder is built from this seed in every
#: run.  Its top-rung call is the anchor whose colors and rounds are
#: reported, so those exact guards compare one input across runs; every
#: other input comes from the run's ``--seed``.
ANCHOR_SEED = 0


#: Passes every run makes whatever the deadline: the anchor row plus one
#: seeded row, and on delta_stream one untraced and one traced cycle.
MIN_PASSES = 2


def passes(seconds: float, pass_seconds: float) -> int:
    """Passes over the ladder in a run: a fixed amount of work sized to
    take about ``seconds`` today, so ``wall_s`` moves when calls get
    faster."""
    return max(MIN_PASSES, round(seconds / pass_seconds))


def graph_seed(seed: int, rung: int, rep: int) -> int:
    """Per-input seed: distinct for every (run seed, rung, repetition)."""
    return seed * 100_003 + rung * 1_009 + rep


def input_seed(seed: int, rung: int, rep: int) -> int:
    """The seed of a cold-call input; repetition 0 is the anchor row."""
    return graph_seed(ANCHOR_SEED if rep == 0 else seed, rung, rep)


@dataclass
class CallRecord:
    """One timed call: its rung, wall seconds and checked outputs."""

    rung: int
    seconds: float
    traced: bool
    ok: bool
    colors: int = 0
    rounds: int = 0
    phases: Dict[str, int] = field(default_factory=dict)
    #: (pass name, wall ms, engine waves) read from the result's PassStats
    passes: List[Tuple[str, float, int]] = field(default_factory=list)
    error: str = ""
    #: delta batches only: dirty vertices and whether repair was incremental
    dirty: int = 0
    incremental: bool = False
    #: a call on the anchor row (the same input in every run)
    anchor: bool = False


@dataclass
class RunState:
    """What a workload's timed loop leaves behind for the metrics."""

    records: List[CallRecord] = field(default_factory=list)
    verify_s: float = 0.0
    #: failures found after the loop (counted as failed calls)
    late_failures: List[str] = field(default_factory=list)


def timed(fn: Callable[[], Any], tracer) -> Tuple[Any, float]:
    """Run ``fn`` and return ``(result, seconds)``.  With a tracer the
    wrappers are swapped in only around this call, so untraced calls in
    the same process run the shipped code unchanged."""
    if tracer is None:
        start = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - start
    with tracer.installed():
        with tracer.span("call") as root:
            out = fn()
    return out, root.end - root.start


def _passes(result: Any) -> List[Tuple[str, float, int]]:
    stats = getattr(result, "stats", None)
    records = getattr(stats, "passes", None) or ()
    return [(p.name, float(p.wall_ms), int(p.engine_waves)) for p in records]


def _rounds(result: Any) -> Tuple[int, Dict[str, int]]:
    counter = result.rounds
    return int(counter.total), dict(counter.by_phase())


# ----------------------------------------------------------------------
# Independent checks
# ----------------------------------------------------------------------


def check_forest(graph, result) -> int:
    cap = math.ceil((1.0 + FOREST_EPSILON) * PA_OUT_DEGREE)
    return validators.check_forest_decomposition(
        graph, result.coloring, max_colors=cap
    )


def orientation_cap() -> int:
    """floor((2+eps) p) with p = 3: the H-partition out-degree bound."""
    return math.floor((2.0 + ORIENT_EPSILON) * PA_OUT_DEGREE)


def check_orientation(graph, result) -> int:
    if result.bound > orientation_cap():
        raise CheckFailed(
            f"out-degree bound {result.bound} > cap {orientation_cap()}"
        )
    validators.check_orientation(graph, result.orientation, result.bound)
    return int(result.bound)


def check_star_forest(graph, result) -> int:
    colors = validators.check_star_forest_decomposition(graph, result.coloring)
    cap = math.ceil((1.0 + STAR_EPSILON) * STAR_FORESTS)
    main = {
        c for c in result.coloring.values()
        if isinstance(c, tuple) and c and c[0] == "amr"
    }
    if len(main) > cap:
        raise CheckFailed(f"{len(main)} sampled colors > (1+eps)alpha = {cap}")
    if colors != result.colors_used:
        raise CheckFailed(
            f"result reports {result.colors_used} colors, found {colors}"
        )
    return colors


# ----------------------------------------------------------------------
# Cold-call ladder workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColdCallWorkload:
    """``repro.decompose(graph, task)`` on a cold session, per ladder rung.

    ``pass_seconds`` is the wall time of one pass over the ladder on a
    2-core x86 VM with Python 3.11 and numpy 2.4; it sizes the fixed
    amount of work a run does (see :func:`passes`).
    """

    name: str
    task: str
    sizes: Tuple[int, ...]
    pass_seconds: float
    make_graph: Callable[[int, int], Any]
    make_config: Callable[[int], Any]
    check: Callable[[Any, Any], int]
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def warm_up(self) -> None:
        """One tiny untimed call: finishes lazy imports and first-call
        set-up so the first timed call is not charged for them."""
        graph = self.make_graph(40, 1)
        repro.decompose(graph, self.task, config=self.make_config(1), **self.kwargs)

    def build(self, seed: int, reps: int, sizes: Sequence[int], twins: bool):
        """Every input of the run: ``rows[rep][rung]`` is a list of one
        graph, or of two identical graphs when ``twins`` (the traced run
        times each input once untraced and once traced)."""
        copies = 2 if twins else 1
        return [
            [
                [
                    self.make_graph(n, input_seed(seed, rung, rep))
                    for _ in range(copies)
                ]
                for rung, n in enumerate(sizes)
            ]
            for rep in range(reps)
        ]

    def run(self, inputs, seed: int, tracer, tamper, deadline: float,
            tick: Callable[[], None]) -> RunState:
        """Time every input; ``tick`` runs before each call, untimed."""
        state = RunState()
        for rep, row in enumerate(inputs):
            if rep >= MIN_PASSES and time.perf_counter() > deadline:
                break
            for rung, graphs in enumerate(row):
                traced_flags = [False] if tracer is None else (
                    [False, True] if rep % 2 == 0 else [True, False]
                )
                config = self.make_config(input_seed(seed, rung, rep))
                twins = []
                for traced, graph in zip(traced_flags, graphs):
                    tick()
                    twins.append(self._call(
                        graph, config, rung, tracer if traced else None,
                        tamper, state,
                    ))
                if len(twins) == 2 and all(r.ok for r in twins) and (
                    twins[0].colors, twins[0].rounds
                ) != (twins[1].colors, twins[1].rounds):
                    for record in twins:
                        if record.traced:
                            record.ok = False
                            record.error = "traced output differs from untraced"
                for record in twins:
                    record.anchor = rep == 0
                state.records.extend(twins)
        return state

    def _call(self, graph, config, rung, tracer, tamper, state) -> CallRecord:
        gc.collect()
        try:
            result, seconds = timed(
                lambda: repro.decompose(
                    graph, self.task, config=config, **self.kwargs
                ),
                tracer,
            )
        except Exception as exc:  # a raising call is a failed call
            return CallRecord(rung, 0.0, tracer is not None, False,
                              error=f"call: {exc!r}")
        record = CallRecord(rung, seconds, tracer is not None, True,
                            passes=_passes(result))
        start = time.perf_counter()
        try:
            if tamper is not None:
                result = tamper(result)
            record.colors = self.check(graph, result)
            record.rounds, record.phases = _rounds(result)
        except Exception as exc:
            record.ok = False
            record.error = f"check: {exc!r}"
        state.verify_s += time.perf_counter() - start
        return record

    def finish(self, inputs, state: RunState) -> None:
        """Cold calls are fully checked one by one; nothing is left."""

    def edges(self, inputs, rung: int) -> float:
        graphs = [row[rung][0] for row in inputs]
        return sum(g.m for g in graphs) / len(graphs)


def _pa_graph(n: int, seed: int):
    return preferential_attachment(n, PA_OUT_DEGREE, seed=seed)


def _star_graph(n: int, seed: int):
    return union_of_random_forests(n, STAR_FORESTS, seed=seed, simple=True)


FOREST_PA = ColdCallWorkload(
    name="forest_pa",
    task="forest",
    sizes=(150, 300, 600),
    pass_seconds=2.6,
    make_graph=_pa_graph,
    make_config=lambda s: repro.DecompositionConfig(
        epsilon=FOREST_EPSILON, seed=s
    ),
    check=check_forest,
)

ORIENT_PA = ColdCallWorkload(
    name="orient_pa",
    task="orientation",
    sizes=(2000, 4000, 8000),
    pass_seconds=4.0,
    make_graph=_pa_graph,
    make_config=lambda s: repro.DecompositionConfig(
        epsilon=ORIENT_EPSILON, seed=s
    ),
    check=check_orientation,
    kwargs={"method": "hpartition"},
)

STAR_KNOWN = ColdCallWorkload(
    name="star_known",
    task="star_forest",
    sizes=(750, 1500, 3000),
    pass_seconds=1.2,
    make_graph=_star_graph,
    make_config=lambda s: repro.DecompositionConfig(
        epsilon=STAR_EPSILON, alpha=STAR_FORESTS, seed=s
    ),
    check=check_star_forest,
)


# ----------------------------------------------------------------------
# The delta stream
# ----------------------------------------------------------------------


@dataclass
class Stream:
    """One watched session plus the benchmark's own copy of its edges."""

    graph: Any
    session: Any
    config: Any
    #: live edge ids, for picking deletes
    live: List[int]
    #: endpoint and liveness arrays indexed by edge id, kept by the
    #: benchmark from what it inserts and deletes (not read back from
    #: the library), for the per-batch check
    ends_u: np.ndarray
    ends_v: np.ndarray
    alive: np.ndarray
    #: per batch: (insert pairs, uniforms in [0, 1) that pick deletes)
    batches: List[Tuple[List[Tuple[int, int]], List[float]]]


@dataclass(frozen=True)
class DeltaStreamWorkload:
    """``Session.apply_delta`` batches against a watched H-partition
    orientation, one closed-loop client, one batch per rung per cycle.

    ``pass_seconds`` is the wall time of one cycle (a batch on every
    rung) on the same 2-core VM as the cold-call workloads.
    """

    name: str
    sizes: Tuple[int, ...]
    pass_seconds: float
    task = "orientation"

    def watch_kwargs(self) -> Dict[str, Any]:
        return {"method": "hpartition", "pseudoarboricity": PA_OUT_DEGREE}

    def warm_up(self) -> None:
        stream = self._stream(200, 1, 2)
        self._apply(stream, 0)

    def build(self, seed: int, reps: int, sizes: Sequence[int], twins: bool):
        return [
            self._stream(n, graph_seed(seed, rung, 0), reps)
            for rung, n in enumerate(sizes)
        ]

    def _stream(self, n: int, gseed: int, reps: int) -> Stream:
        graph = _pa_graph(n, gseed)
        config = repro.DecompositionConfig(epsilon=ORIENT_EPSILON, seed=gseed)
        session = repro.Session(graph, config)
        session.watch(self.task, config, **self.watch_kwargs())
        capacity = graph.m + reps * DELTA_EDITS + 1
        ends_u = np.full(capacity, -1, dtype=np.int64)
        ends_v = np.full(capacity, -1, dtype=np.int64)
        alive = np.zeros(capacity, dtype=bool)
        live = []
        for eid, u, v in graph.edges():
            ends_u[eid], ends_v[eid], alive[eid] = u, v, True
            live.append(eid)
        rng = random.Random(gseed * 7 + 1)
        batches = []
        for _ in range(reps):
            pairs = []
            while len(pairs) < DELTA_EDITS:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    pairs.append((u, v))
            batches.append((pairs, [rng.random() for _ in range(DELTA_EDITS)]))
        return Stream(graph, session, config, live, ends_u, ends_v, alive,
                      batches)

    def _pick_deletes(self, stream: Stream, uniforms: List[float]) -> List[int]:
        """Swap-remove ``len(uniforms)`` distinct live ids."""
        picked = []
        live = stream.live
        for u in uniforms:
            i = int(u * len(live))
            live[i], live[-1] = live[-1], live[i]
            picked.append(live.pop())
        return picked

    def _apply(self, stream: Stream, b: int, tracer=None):
        pairs, uniforms = stream.batches[b]
        deletes = self._pick_deletes(stream, uniforms)
        try:
            report, seconds = timed(
                lambda: stream.session.apply_delta(pairs, deletes), tracer
            )
        except Exception:
            stream.live.extend(deletes)  # the batch is atomic: undone
            raise
        for eid in deletes:
            stream.alive[eid] = False
        for eid, (u, v) in zip(report.inserted, pairs):
            stream.ends_u[eid], stream.ends_v[eid] = u, v
            stream.alive[eid] = True
            stream.live.append(eid)
        return report, seconds

    def run(self, inputs, seed: int, tracer, tamper, deadline: float,
            tick: Callable[[], None]) -> RunState:
        """One batch per rung per cycle; ``tick`` runs before each cycle,
        untimed."""
        state = RunState()
        cycles = len(inputs[0].batches)
        for b in range(cycles):
            if b >= MIN_PASSES and time.perf_counter() > deadline:
                break
            tick()
            traced = tracer is not None and b % 2 == 1
            for rung, stream in enumerate(inputs):
                state.records.append(self._batch(
                    stream, b, rung, tracer if traced else None, tamper, state
                ))
        return state

    def _batch(self, stream, b, rung, tracer, tamper, state) -> CallRecord:
        try:
            report, seconds = self._apply(stream, b, tracer)
        except Exception as exc:
            return CallRecord(rung, 0.0, tracer is not None, False,
                              error=f"call: {exc!r}")
        result = stream.session.current(self.task)
        record = CallRecord(
            rung, seconds, tracer is not None, True,
            passes=_passes(result), dirty=int(report.dirty_vertices),
            incremental=report.mode == "incremental",
        )
        start = time.perf_counter()
        try:
            if tamper is not None:
                result = tamper(result)
            record.colors = self._check_batch(stream, result)
            record.rounds, record.phases = _rounds(result)
        except Exception as exc:
            record.ok = False
            record.error = f"check: {exc!r}"
        state.verify_s += time.perf_counter() - start
        return record

    def _check_batch(self, stream: Stream, result) -> int:
        """Whole-orientation check in O(m) numpy against the benchmark's
        own edge arrays: every live edge oriented exactly once, out of
        one of its endpoints, and every out-degree within the bound."""
        if result.bound > orientation_cap():
            raise CheckFailed(
                f"out-degree bound {result.bound} > cap {orientation_cap()}"
            )
        eids, tails = _mapping_arrays(result.orientation)
        if eids.size != len(stream.live):
            raise CheckFailed(
                f"{eids.size} edges oriented, {len(stream.live)} live"
            )
        if eids.size == 0:
            return int(result.bound)
        if eids.min() < 0 or eids.max() >= stream.alive.size:
            raise CheckFailed("orientation mentions an unknown edge id")
        if not stream.alive[eids].all():
            raise CheckFailed("orientation keeps a deleted edge")
        if np.bincount(eids).max() > 1:
            raise CheckFailed("an edge is oriented twice")
        at_u = tails == stream.ends_u[eids]
        if not (at_u | (tails == stream.ends_v[eids])).all():
            raise CheckFailed("a tail is not an endpoint of its edge")
        worst = int(np.bincount(tails).max())
        if worst > result.bound:
            raise CheckFailed(f"out-degree {worst} > bound {result.bound}")
        return int(result.bound)

    def finish(self, inputs, state: RunState) -> None:
        """The delta contract on every rung: the maintained result passes
        ``repro.verify`` and equals a fresh decompose of a copy of the
        final graph (the copy carries no cached snapshot)."""
        start = time.perf_counter()
        for rung, stream in enumerate(inputs):
            try:
                current = stream.session.current(self.task)
                validators.check_orientation(
                    stream.graph, current.orientation, current.bound
                )
                fresh = repro.decompose(
                    stream.graph.copy(), self.task, config=stream.config,
                    **self.watch_kwargs(),
                )
                if fresh.bound != current.bound or not _same_mapping(
                    fresh.orientation, current.orientation
                ):
                    raise CheckFailed("maintained result != fresh decompose")
            except Exception as exc:
                state.late_failures.append(f"rung {rung}: {exc!r}")
        state.verify_s += time.perf_counter() - start

    def edges(self, inputs, rung: int) -> float:
        return float(inputs[rung].graph.m)


def _mapping_arrays(mapping) -> Tuple[np.ndarray, np.ndarray]:
    """``(edge ids, values)`` of an edge mapping, without a dict when it
    is array-backed."""
    eids = getattr(mapping, "eids", None)
    vals = getattr(mapping, "vals", None)
    if isinstance(eids, np.ndarray) and isinstance(vals, np.ndarray):
        return eids.astype(np.int64, copy=False), vals.astype(np.int64, copy=False)
    return (
        np.fromiter(mapping.keys(), dtype=np.int64, count=len(mapping)),
        np.fromiter(mapping.values(), dtype=np.int64, count=len(mapping)),
    )


def _same_mapping(a, b) -> bool:
    ea, va = _mapping_arrays(a)
    eb, vb = _mapping_arrays(b)
    oa, ob = np.argsort(ea, kind="stable"), np.argsort(eb, kind="stable")
    return bool(
        np.array_equal(ea[oa], eb[ob]) and np.array_equal(va[oa], vb[ob])
    )


DELTA_STREAM = DeltaStreamWorkload(
    name="delta_stream",
    sizes=(15000, 30000, 60000),
    pass_seconds=0.07,
)

WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (FOREST_PA, ORIENT_PA, STAR_KNOWN, DELTA_STREAM)
}
