"""Fan-out race detector.

Closures handed to the fan-out seams — ``ctx.fan_out`` thunks,
``gather``/``wave``/``scan_shards``/``map_ranges`` kernels, pool
``submit`` — are the points where work may be reordered, batched or
run on other threads.  Determinism
requires them to *only read frozen shared state*: all writes to shared
state belong in the reconcile phase (or the in-order loop over
returned thunk results).  PR 7's star-forest bug was exactly a
fanned thunk accumulating ``stats.dummy_slots`` through its closure —
correct serially, a lost-update race concurrently; the fix moved the
accumulation into thunk return values.

Two rules:

* ``race-closure-write`` — a fanned callable stores into (or calls a
  mutating method on) a name captured from an enclosing scope, or
  declares ``nonlocal``/``global``.  Mutating *locals* and *parameters*
  is fine (per-call state); mutating captures is the bug class.
  ``RoundCounter.charge`` counts as a mutation: the counter is shared
  and not thread-safe, so charging belongs outside the fanned region.
* ``race-rng`` — a fanned callable draws from an RNG (``rng.sample``,
  ``child_rng(...)``, …).  Stream consumption order then depends on
  thread scheduling, so "seeded" runs stop reproducing.  Draws belong
  before the fan-out, in fixed order (the PR 7 star-forest fix keeps
  them outside the fanned region).

Both rules are purely lexical: a callable is "fanned" when it appears
(directly, via a local name, or inside a list/comprehension) as the
fanned argument of one of the seam calls.  ``wave(work, kernel,
reconcile)`` exempts the reconcile — it is *defined* as the single
writer of shared state.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .core import Finding, Rule, SourceModule

__all__ = ["FanOutRaceRule", "FANOUT_RULES"]

#: seam-method name -> index of the fanned callable argument (also
#: accepted as the matching keyword).
FANOUT_SEAMS: Dict[str, Tuple[int, str]] = {
    "fan_out": (0, "thunks"),
    "gather": (0, "kernel"),
    "wave": (1, "kernel"),
    "scan_shards": (0, "kernel"),
    "map_ranges": (0, "fn"),
    "submit": (0, "fn"),
}

#: method names that mutate their receiver (plus the shared
#: RoundCounter's charge, which is not thread-safe).
MUTATING_METHODS = frozenset({
    "append", "extend", "add", "update", "insert", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse", "fill",
    "put", "itemset", "charge",
})

#: random.Random draw methods.
RNG_METHODS = frozenset({
    "random", "randrange", "randint", "sample", "shuffle", "choice",
    "choices", "getrandbits", "gauss", "uniform", "betavariate",
    "normalvariate", "expovariate", "triangular",
})

#: repro.rng helpers that consume the parent stream.
RNG_HELPERS = frozenset({
    "child_rng", "make_rng", "coin", "sample_subset",
    "random_partition_index",
})


def _bound_names(func: ast.AST) -> Set[str]:
    """Every name bound inside the callable subtree: parameters,
    assignment/loop/with/comprehension targets, nested defs.  Names
    outside this set that the body stores through are closure
    captures."""
    bound: Set[str] = set()

    def add_args(arguments: ast.arguments) -> None:
        for arg in (
            list(getattr(arguments, "posonlyargs", []))
            + list(arguments.args)
            + list(arguments.kwonlyargs)
        ):
            bound.add(arg.arg)
        if arguments.vararg:
            bound.add(arguments.vararg.arg)
        if arguments.kwarg:
            bound.add(arguments.kwarg.arg)

    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        add_args(func.args)

    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound.add(node.name)
            add_args(node.args)
        elif isinstance(node, ast.Lambda):
            add_args(node.args)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
    return bound


def _base_name(node: ast.AST) -> Optional[str]:
    """The root Name of an attribute/subscript chain (``a.b[c]`` → a)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class _ScopeStack:
    """Maps names to locally defined callables, per lexical scope."""

    def __init__(self) -> None:
        self.stack: List[Dict[str, ast.AST]] = []

    def push(self, body: List[ast.stmt]) -> None:
        defs: Dict[str, ast.AST] = {}
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Lambda
            ):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        defs[target.id] = stmt.value
        self.stack.append(defs)

    def pop(self) -> None:
        self.stack.pop()

    def resolve(self, name: str) -> Optional[ast.AST]:
        for defs in reversed(self.stack):
            if name in defs:
                return defs[name]
        return None


class FanOutRaceRule(Rule):
    """Both race rules share one traversal; ``check`` dispatches on the
    finding's rule id, so the class is registered twice (see
    :data:`FANOUT_RULES`)."""

    kernel_only = False

    def __init__(self, rule_id: str) -> None:
        self.id = rule_id
        self.summary = (
            "closure-captured state written inside a fanned region"
            if rule_id == "race-closure-write"
            else "RNG draw inside a fanned region"
        )

    def check(self, module: SourceModule) -> Iterable[Finding]:
        for finding in _scan_module(module):
            if finding.rule == self.id:
                yield finding


def _scan_module(module: SourceModule) -> List[Finding]:
    cache = getattr(module, "_fanout_findings", None)
    if cache is not None:
        return cache
    findings: List[Finding] = []
    scopes = _ScopeStack()

    def visit_body(body: List[ast.stmt]) -> None:
        scopes.push(body)
        for stmt in body:
            visit_node(stmt)
        scopes.pop()

    def visit_node(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit_body(node.body)
            return
        if isinstance(node, ast.Call):
            seam = _seam_of(node)
            if seam is not None:
                for func in _fanned_callables(node, seam, scopes):
                    findings.extend(_check_callable(module, func, seam))
        for child in ast.iter_child_nodes(node):
            visit_node(child)

    visit_body(list(module.tree.body))
    module._fanout_findings = findings  # type: ignore[attr-defined]
    return findings


def _seam_of(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in FANOUT_SEAMS:
        return func.attr
    return None


def _fanned_callables(
    call: ast.Call, seam: str, scopes: _ScopeStack
) -> Iterator[ast.AST]:
    index, keyword = FANOUT_SEAMS[seam]
    expr: Optional[ast.AST] = None
    if len(call.args) > index:
        expr = call.args[index]
    else:
        for kw in call.keywords:
            if kw.arg == keyword:
                expr = kw.value
    if expr is None:
        return
    yield from _callables_in(expr, scopes)


def _callables_in(
    expr: ast.AST, scopes: _ScopeStack
) -> Iterator[ast.AST]:
    if isinstance(expr, ast.Lambda):
        yield expr
    elif isinstance(expr, ast.Name):
        resolved = scopes.resolve(expr.id)
        if resolved is not None:
            yield resolved
    elif isinstance(expr, (ast.List, ast.Tuple)):
        for element in expr.elts:
            yield from _callables_in(element, scopes)
    elif isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
        yield from _callables_in(expr.elt, scopes)
    # anything else (call results, attributes) is opaque to the rule


def _check_callable(
    module: SourceModule, func: ast.AST, seam: str
) -> Iterator[Finding]:
    bound = _bound_names(func)
    where = f"callable fanned through {seam}()"

    for node in ast.walk(func):
        if isinstance(node, (ast.Nonlocal, ast.Global)):
            kind = "nonlocal" if isinstance(node, ast.Nonlocal) else "global"
            yield Finding(
                "race-closure-write", module.relpath, node.lineno,
                node.col_offset,
                f"{kind} declaration in a {where}: rebinding enclosing-"
                "scope state from worker threads is a lost-update race",
            )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    base = _base_name(target)
                    if base is not None and base not in bound:
                        yield Finding(
                            "race-closure-write", module.relpath,
                            target.lineno, target.col_offset,
                            f"store into closure-captured '{base}' in a "
                            f"{where}: the PR 7 bug class — return the "
                            "value and reconcile in the in-order loop",
                        )
        elif isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Attribute):
                base = _base_name(callee.value)
                is_free = base is not None and base not in bound
                if is_free and callee.attr in MUTATING_METHODS:
                    yield Finding(
                        "race-closure-write", module.relpath,
                        node.lineno, node.col_offset,
                        f"'{base}.{callee.attr}(...)' mutates closure-"
                        f"captured state in a {where}: writes belong in "
                        "the reconcile phase",
                    )
                if is_free and callee.attr in RNG_METHODS and (
                    base is not None
                    and ("rng" in base.lower() or base == "random")
                ):
                    yield Finding(
                        "race-rng", module.relpath,
                        node.lineno, node.col_offset,
                        f"'{base}.{callee.attr}(...)' draws from a "
                        f"captured RNG in a {where}: stream order would "
                        "depend on thread scheduling — draw before "
                        "fanning out, in fixed order",
                    )
            elif (
                isinstance(callee, ast.Name)
                and callee.id in RNG_HELPERS
                and callee.id not in bound
            ):
                yield Finding(
                    "race-rng", module.relpath,
                    node.lineno, node.col_offset,
                    f"'{callee.id}(...)' consumes the parent RNG stream "
                    f"in a {where}: derive child streams before fanning "
                    "out",
                )


FANOUT_RULES = [
    FanOutRaceRule("race-closure-write"),
    FanOutRaceRule("race-rng"),
]
