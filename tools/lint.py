"""Repository lint driver: `make lint` / the CI lint job.

Four layers, matching what the environment can guarantee:

1. **Compile check** (always): byte-compile every Python file under the
   source trees — catches syntax errors, tab/space damage, and
   encoding breakage without importing anything.  Bytecode is written
   to a throwaway cache dir (``sys.pycache_prefix``), so linting never
   litters ``__pycache__`` into the tree (it used to end up inside CI
   artifacts).
2. **pyflakes** (when importable): undefined names, unused imports,
   redefinitions.  An environment without pyflakes falls back to a
   stdlib-``ast`` check for unused module-level imports only
   (:func:`unused_imports`) — but with ``LINT_REQUIRE_PYFLAKES=1``
   (set by the CI lint job, which installs the ``[test]`` extra) a
   missing pyflakes is a hard failure, so the narrower fallback can
   never mask undefined names on CI.
3. **API-surface check** (tools/api_surface.py): the exported
   names/signatures must match the frozen tools/api_surface.json —
   accidental public-API breakage fails the lint job.
4. **Determinism checks** (tools/checks/, also ``make check``): the
   ``det-*`` rules and pragma hygiene.  See docs/determinism.md.

Exit status is non-zero on any finding, so the Make target and the CI
job gate on it.
"""

from __future__ import annotations

import ast
import compileall
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator, List, Set

TARGETS = ["src", "tests", "benchmarks", "examples", "tools", "setup.py"]


def compile_check(root: Path) -> bool:
    ok = True
    with tempfile.TemporaryDirectory(prefix="repro-lint-pyc-") as cache:
        # Redirect bytecode out of the tree: compileall otherwise drops
        # __pycache__ dirs everywhere it looks, and those ended up in
        # CI artifacts (PEP 405 pycache_prefix, py3.8+).
        previous = sys.pycache_prefix
        sys.pycache_prefix = cache
        try:
            for target in TARGETS:
                path = root / target
                if not path.exists():
                    continue
                if path.is_file():
                    ok &= bool(
                        compileall.compile_file(
                            str(path), quiet=1, force=True
                        )
                    )
                else:
                    ok &= bool(
                        compileall.compile_dir(str(path), quiet=1, force=True)
                    )
        finally:
            sys.pycache_prefix = previous
    return bool(ok)


def pyflakes_check(root: Path) -> bool:
    try:
        from pyflakes.api import checkRecursive
        from pyflakes.reporter import Reporter
    except ImportError:
        if os.environ.get("LINT_REQUIRE_PYFLAKES", "").strip() == "1":
            print(
                "lint: pyflakes unavailable but LINT_REQUIRE_PYFLAKES=1 "
                "(CI installs it via the [test] extra) — failing instead "
                "of silently downgrading"
            )
            return False
        print("lint: pyflakes unavailable; unused-import fallback only")
        findings = [
            finding
            for target in TARGETS
            for path in _python_files(root / target)
            for finding in unused_imports(path)
        ]
        for finding in findings:
            print(finding)
        return not findings
    paths = [str(root / target) for target in TARGETS if (root / target).exists()]
    reporter = Reporter(sys.stdout, sys.stderr)
    return checkRecursive(paths, reporter) == 0


def _python_files(path: Path) -> Iterator[Path]:
    if path.is_file():
        yield path
    elif path.is_dir():
        yield from sorted(path.rglob("*.py"))


def _module_level_imports(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Import statements outside any function or class (descending
    into module-level ``if`` / ``try`` / ``with`` blocks)."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_level_imports(getattr(node, field, []))


def _used_names(tree: ast.Module) -> Set[str]:
    """Every name the module loads, plus the names inside string
    annotations and the entries of a literal ``__all__``."""
    used: Set[str] = set()
    annotations: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                used.update(
                    e.value for e in node.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                )
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(
                    n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                )
    return used


def unused_imports(path: Path) -> List[str]:
    """``path:line: 'name' imported but unused`` for each module-level
    import the module never uses.  Skips ``__init__.py`` (its imports
    are re-exports), names listed in ``__all__``, and import lines
    marked ``# noqa``."""
    if path.name == "__init__.py":
        return []
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = _used_names(tree)
    findings = []
    for node in _module_level_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa" in line for line in span):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            if isinstance(node, ast.Import) and alias.asname is None:
                bound = alias.name.split(".")[0]
            if bound not in used:
                findings.append(
                    f"{path}:{node.lineno}: {alias.name!r} imported but unused"
                )
    return findings


def api_surface_check(root: Path) -> bool:
    """The frozen public-API snapshot must match (tools/api_surface.py)."""
    src = root / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if str(root / "tools") not in sys.path:
        sys.path.insert(0, str(root / "tools"))
    import api_surface

    return api_surface.check() == 0


def determinism_check(root: Path) -> bool:
    """tools/checks in a subprocess (same invocation as `make check`),
    so lint and check cannot drift apart."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "tools.checks",
            "--json", "CHECK_findings.json",
        ],
        cwd=root,
    )
    return proc.returncode == 0


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    ok = compile_check(root)
    if not ok:
        print("lint: compile check failed")
        return 1
    if not pyflakes_check(root):
        print("lint: pyflakes findings")
        return 1
    if not api_surface_check(root):
        print("lint: public API surface drifted")
        return 1
    if not determinism_check(root):
        print("lint: determinism check findings (make check)")
        return 1
    print("lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
