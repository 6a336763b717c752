"""Determinism lint: rules over the kernel packages.

The library's core guarantee is that every decomposition is
bit-identical across backends.  These
rules flag the constructs that historically (or structurally) break it:

* ``det-hash`` — ``hash()`` on anything.  ``hash(str)`` is randomized
  per process by ``PYTHONHASHSEED`` (the PR 2 ``child_rng`` bug: seeded
  runs flaked across processes); integer hashes are stable but the
  builtin is banned wholesale in kernel modules so nobody has to argue
  about operand types in review — use ``hashlib.blake2b`` digests.
* ``det-id`` — ``id()``.  CPython addresses vary run to run, so any
  ordering or keying by ``id`` is irreproducible.
* ``det-set-order`` — iterating a set (literal, comprehension,
  ``set()``/``frozenset()`` call, or a local variable bound to one)
  without ``sorted(...)``.  Set iteration order depends on element
  hashes — randomized for strings — so any set-ordered loop that feeds
  output ordering is a latent reproducibility bug.  Dict iteration is
  insertion-ordered and therefore allowed.
* ``det-wallclock`` — ``time.*`` / ``random.*`` / ``datetime.now()``-
  style ambient nondeterminism in kernel modules.  Randomness must
  flow through :mod:`repro.rng` seeds; wall-clock reads are only
  legitimate for observability (PassStats timing) and need a pragma
  saying so.
* ``det-env`` — ``os.environ`` / ``os.getenv`` outside the sanctioned
  single-read helpers (:data:`~tools.checks.core.SANCTIONED_ENV_READERS`,
  empty: the library has no environment knobs).  Scattered env reads
  let a knob be re-read mid-run; a knob, if one is ever added, is read
  exactly once, in one named place.

``det-env`` applies to all of ``src``; the others are kernel-only
(``src/repro/{parallel,graph,decomposition,pipeline}``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Set

from .core import Finding, Rule, SANCTIONED_ENV_READERS, SourceModule

__all__ = [
    "HashCallRule",
    "IdCallRule",
    "SetIterationRule",
    "WallclockRule",
    "EnvReadRule",
    "DETERMINISM_RULES",
]


class HashCallRule(Rule):
    id = "det-hash"
    summary = (
        "builtin hash() in a kernel module (PYTHONHASHSEED-randomized "
        "for str/bytes; use hashlib.blake2b)"
    )
    kernel_only = True

    def check(self, module: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield self.finding(
                    module, node,
                    "hash() is process-randomized for str/bytes "
                    "(PYTHONHASHSEED) — the PR 2 child_rng bug class; "
                    "use a hashlib.blake2b digest",
                )


class IdCallRule(Rule):
    id = "det-id"
    summary = "builtin id() in a kernel module (addresses vary per run)"
    kernel_only = True

    def check(self, module: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
            ):
                yield self.finding(
                    module, node,
                    "id() values vary run to run; ordering or keying by "
                    "object identity is irreproducible",
                )


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _FunctionSets(ast.NodeVisitor):
    """Names bound to set-valued expressions within one scope (single
    straight-line inference: a rebind to a non-set expression clears
    the mark)."""

    def __init__(self) -> None:
        self.set_names: Set[str] = set()

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                if _is_set_expr(node.value):
                    self.set_names.add(target.id)
                else:
                    self.set_names.discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            if _is_set_expr(node.value):
                self.set_names.add(node.target.id)
            else:
                self.set_names.discard(node.target.id)
        self.generic_visit(node)

    # nested scopes track their own bindings
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


class SetIterationRule(Rule):
    id = "det-set-order"
    summary = (
        "iterating a set without sorted() in a kernel module "
        "(hash-ordered; randomized for str elements)"
    )
    kernel_only = True

    _ORDER_SINKS = ("list", "tuple", "enumerate", "iter", "reversed")

    def check(self, module: SourceModule) -> Iterable[Finding]:
        # scopes: module body + every function body
        scopes: List[ast.AST] = [module.tree]
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node)
        for scope in scopes:
            yield from self._check_scope(module, scope)

    def _scope_body_nodes(self, scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope without descending into nested functions."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _check_scope(
        self, module: SourceModule, scope: ast.AST
    ) -> Iterator[Finding]:
        inference = _FunctionSets()
        for child in ast.iter_child_nodes(scope):
            inference.visit(child)
        set_names = inference.set_names

        def is_set_like(expr: ast.AST) -> bool:
            if _is_set_expr(expr):
                return True
            return isinstance(expr, ast.Name) and expr.id in set_names

        for node in self._scope_body_nodes(scope):
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            # SetComp is exempt: iterating a set to build another set
            # cannot leak iteration order into the result.
            elif isinstance(node, (ast.ListComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._ORDER_SINKS
                and node.args
            ):
                iters.append(node.args[0])
            for expr in iters:
                if is_set_like(expr):
                    yield self.finding(
                        module, expr,
                        "set iteration order is hash-dependent "
                        "(PYTHONHASHSEED-randomized for strings); wrap "
                        "in sorted(...) before it can feed output "
                        "ordering",
                    )


class WallclockRule(Rule):
    id = "det-wallclock"
    summary = (
        "ambient nondeterminism (time/random/datetime/np.random) in a "
        "kernel module"
    )
    kernel_only = True

    _MODULES = ("time", "random", "datetime")
    _TIME_NAMES = frozenset({
        "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
        "time_ns", "process_time",
    })

    def check(self, module: SourceModule) -> Iterable[Finding]:
        from_imports: Dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module in self._MODULES:
                for alias in node.names:
                    from_imports[alias.asname or alias.name] = node.module
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                value = node.value
                if isinstance(value, ast.Name) and value.id in self._MODULES:
                    yield self.finding(
                        module, node,
                        f"{value.id}.{node.attr}: wall-clock/ambient "
                        "randomness in a kernel module; seed through "
                        "repro.rng (pragma observability-only timing)",
                    )
                # np.random / numpy.random
                elif (
                    isinstance(value, ast.Name)
                    and value.id in ("np", "numpy")
                    and node.attr == "random"
                ):
                    yield self.finding(
                        module, node,
                        "np.random draws from global process state; "
                        "seed through repro.rng",
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in from_imports
            ):
                origin = from_imports[node.func.id]
                yield self.finding(
                    module, node,
                    f"{node.func.id}() (from {origin}): wall-clock/"
                    "ambient randomness in a kernel module; seed "
                    "through repro.rng (pragma observability-only "
                    "timing)",
                )


class EnvReadRule(Rule):
    id = "det-env"
    summary = (
        "environment read outside the sanctioned single-read helpers"
    )
    kernel_only = False

    def check(self, module: SourceModule) -> Iterable[Finding]:
        sanctioned_spans: List[range] = []
        for node in ast.walk(module.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in SANCTIONED_ENV_READERS
            ):
                end = getattr(node, "end_lineno", node.lineno)
                sanctioned_spans.append(range(node.lineno, end + 1))

        def sanctioned(line: int) -> bool:
            return any(line in span for span in sanctioned_spans)

        for node in ast.walk(module.tree):
            hit = None
            if isinstance(node, ast.Attribute):
                value = node.value
                if (
                    isinstance(value, ast.Name)
                    and value.id == "os"
                    and node.attr in ("environ", "getenv")
                ):
                    hit = f"os.{node.attr}"
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getenv"
            ):
                hit = "getenv"
            if hit is None:
                continue
            if sanctioned(getattr(node, "lineno", 0)):
                continue
            yield self.finding(
                module, node,
                f"{hit}: environment reads belong in a sanctioned "
                "single-read helper (SANCTIONED_ENV_READERS in "
                "tools/checks/core.py); scattered reads let mid-run env "
                "changes perturb results",
            )


DETERMINISM_RULES = [
    HashCallRule(),
    IdCallRule(),
    SetIterationRule(),
    WallclockRule(),
    EnvReadRule(),
]
