"""Pass-effect checker: declared ``reads``/``writes`` vs. the body.

A pipeline runs its :class:`repro.pipeline.Pass` list in order, and
each pass's declared ``reads`` / ``writes`` are the record of the data
that flows between those passes — what ``repro describe`` shows and
what a reader checks before reordering, splitting or merging passes.
A runner that writes a context key it never declared hides an input
of every later pass that reads the key.  These rules make the
declarations provably honest, the way the paper's round-by-round LOCAL
model makes per-round effects explicit.

For every ``Pass(name, runner, reads=…, writes=…)`` whose runner is a
module-level function, the checker walks the runner body and records
accesses to its context parameter (the first argument):

* **reads** — ``ctx["k"]`` loads, ``ctx.get("k")``, ``"k" in ctx``;
* **direct writes** — ``ctx["k"] = …`` / ``del ctx["k"]`` /
  augmented assignment, ``ctx.update({...})`` literal keys, and
  write-through mutation: ``ctx["k"].attr = …``, ``ctx["k"][i] = …``,
  ``ctx["k"].update(...)``-style mutating method calls.

Rules:

* ``effect-undeclared-write`` — a direct write to a key missing from
  the declared ``writes``.  This is the hard failure: the
  declarations hide it.
* ``effect-dead-decl`` — a declared read or write whose key never
  appears in the body at all.  Dead declarations claim a data flow
  between passes that does not exist and rot into documentation
  lies.

Honest limitations, by design (the dynamic equivalence corpora remain
the backstop): aliasing (``d = ctx["k"]; d[x] = …``) and mutation
inside helpers called with ``ctx["k"]`` are invisible, so a declared
write that only happens through a helper argument still counts as
"mentioned" and does not trip the dead-declaration rule.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .core import Finding, Rule, SourceModule
from .fanout import MUTATING_METHODS

__all__ = ["PassEffectRule", "EFFECT_RULES"]


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _str_tuple(node: ast.AST) -> Optional[Tuple[str, ...]]:
    if isinstance(node, (ast.Tuple, ast.List)):
        out = []
        for element in node.elts:
            value = _const_str(element)
            if value is None:
                return None
            out.append(value)
        return tuple(out)
    value = _const_str(node)
    if value is not None:
        return (value,)
    return None


class _PassDecl:
    def __init__(
        self,
        name: str,
        runner: str,
        reads: Tuple[str, ...],
        writes: Tuple[str, ...],
        node: ast.Call,
    ) -> None:
        self.name = name
        self.runner = runner
        self.reads = reads
        self.writes = writes
        self.node = node


def _pass_decls(tree: ast.Module) -> List[_PassDecl]:
    decls: List[_PassDecl] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name_ok = (isinstance(func, ast.Name) and func.id == "Pass") or (
            isinstance(func, ast.Attribute) and func.attr == "Pass"
        )
        if not name_ok or len(node.args) < 2:
            continue
        pass_name = _const_str(node.args[0])
        runner = node.args[1]
        if pass_name is None or not isinstance(runner, ast.Name):
            continue
        reads: Tuple[str, ...] = ()
        writes: Tuple[str, ...] = ()
        literal = True
        for kw in node.keywords:
            if kw.arg == "reads":
                parsed = _str_tuple(kw.value)
                if parsed is None:
                    literal = False
                else:
                    reads = parsed
            elif kw.arg == "writes":
                parsed = _str_tuple(kw.value)
                if parsed is None:
                    literal = False
                else:
                    writes = parsed
        if not literal:
            continue  # computed declarations are out of lexical reach
        decls.append(_PassDecl(pass_name, runner.id, reads, writes, node))
    return decls


class _CtxAccesses(ast.NodeVisitor):
    """Context-key accesses of one runner body (``ctx`` = first param)."""

    def __init__(self, ctx_name: str) -> None:
        self.ctx_name = ctx_name
        self.reads: Set[str] = set()
        #: key -> first write site
        self.writes: Dict[str, ast.AST] = {}

    def _note_write(self, key: str, node: ast.AST) -> None:
        self.writes.setdefault(key, node)

    def _ctx_key(self, node: ast.AST) -> Optional[str]:
        """``ctx["k"]`` → ``"k"``."""
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == self.ctx_name
        ):
            sl = node.slice
            # py<3.9 wraps subscript slices in ast.Index
            if sl.__class__.__name__ == "Index":
                sl = sl.value  # type: ignore[attr-defined]
            return _const_str(sl)
        return None

    def visit_Subscript(self, node: ast.Subscript) -> None:
        key = self._ctx_key(node)
        if key is not None:
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                self._note_write(key, node)
            else:
                self.reads.add(key)
        else:
            # write-through: ctx["k"][i] = v
            inner = self._ctx_key(node.value)
            if inner is not None and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                self._note_write(inner, node)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # write-through: ctx["k"].attr = v
        key = self._ctx_key(node.value)
        if key is not None and isinstance(node.ctx, (ast.Store, ast.Del)):
            self._note_write(key, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        key = self._ctx_key(node.target)
        if key is not None:
            self._note_write(key, node)
            self.reads.add(key)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            # ctx.get("k") / ctx.update({...})
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == self.ctx_name
            ):
                if func.attr == "get" and node.args:
                    key = _const_str(node.args[0])
                    if key is not None:
                        self.reads.add(key)
                elif func.attr == "update" and node.args:
                    mapping = node.args[0]
                    if isinstance(mapping, ast.Dict):
                        for key_node in mapping.keys:
                            key = (
                                _const_str(key_node)
                                if key_node is not None
                                else None
                            )
                            if key is not None:
                                self._note_write(key, node)
            else:
                # write-through: ctx["k"].append(...) etc.
                key = self._ctx_key(func.value)
                if key is not None and func.attr in MUTATING_METHODS:
                    self._note_write(key, node)
                    self.reads.add(key)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        # "k" in ctx
        for op, comparator in zip(node.ops, node.comparators):
            if (
                isinstance(op, (ast.In, ast.NotIn))
                and isinstance(comparator, ast.Name)
                and comparator.id == self.ctx_name
            ):
                key = _const_str(node.left)
                if key is not None:
                    self.reads.add(key)
        self.generic_visit(node)


class PassEffectRule(Rule):
    """Registered twice, once per rule id (shared traversal)."""

    kernel_only = False

    def __init__(self, rule_id: str) -> None:
        self.id = rule_id
        self.summary = (
            "runner writes a context key missing from the Pass's "
            "declared writes"
            if rule_id == "effect-undeclared-write"
            else "declared read/write key the runner body never touches"
        )

    def check(self, module: SourceModule) -> Iterable[Finding]:
        for finding in _scan_module(module):
            if finding.rule == self.id:
                yield finding


def _scan_module(module: SourceModule) -> List[Finding]:
    cache = getattr(module, "_effect_findings", None)
    if cache is not None:
        return cache
    findings: List[Finding] = []
    functions: Dict[str, ast.FunctionDef] = {
        stmt.name: stmt
        for stmt in module.tree.body
        if isinstance(stmt, ast.FunctionDef)
    }
    accesses_cache: Dict[str, _CtxAccesses] = {}

    for decl in _pass_decls(module.tree):
        runner = functions.get(decl.runner)
        if runner is None or not runner.args.args:
            continue  # imported/opaque runner: out of lexical reach
        accesses = accesses_cache.get(decl.runner)
        if accesses is None:
            accesses = _CtxAccesses(runner.args.args[0].arg)
            accesses.visit(runner)
            accesses_cache[decl.runner] = accesses

        mentioned = accesses.reads | set(accesses.writes)
        for key, site in sorted(
            accesses.writes.items(), key=lambda kv: kv[1].lineno
        ):
            if key not in decl.writes:
                findings.append(Finding(
                    "effect-undeclared-write", module.relpath,
                    site.lineno, site.col_offset,
                    f"pass '{decl.name}' ({decl.runner}) writes context "
                    f"key '{key}' but declares writes={decl.writes!r}: "
                    "the declarations hide this effect",
                ))
        for key in decl.writes:
            if key not in mentioned:
                findings.append(Finding(
                    "effect-dead-decl", module.relpath,
                    decl.node.lineno, decl.node.col_offset,
                    f"pass '{decl.name}' declares write '{key}' but "
                    f"{decl.runner} never touches it",
                ))
        for key in decl.reads:
            if key not in mentioned:
                findings.append(Finding(
                    "effect-dead-decl", module.relpath,
                    decl.node.lineno, decl.node.col_offset,
                    f"pass '{decl.name}' declares read '{key}' but "
                    f"{decl.runner} never touches it",
                ))

    module._effect_findings = findings  # type: ignore[attr-defined]
    return findings


EFFECT_RULES = [
    PassEffectRule("effect-undeclared-write"),
    PassEffectRule("effect-dead-decl"),
]
