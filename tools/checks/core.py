"""Shared infrastructure for the repo's static determinism checks.

The framework is deliberately small and stdlib-only (``ast`` + ``re``):

* :class:`Finding` — one (rule, file, line) diagnostic;
* :class:`SourceModule` — a parsed file plus the scope flags rules key
  off (``is_kernel`` for the kernel-only rules, which police the
  parallel/graph/decomposition packages and the stage runner);
* :class:`Rule` — the visitor contract every rule implements;
* pragma handling — ``# repro: allow(rule-id) — reason`` suppresses a
  finding on its line (or, for a comment-only line, on the next code
  line); the reason string is mandatory and unused pragmas are
  themselves findings, so suppressions cannot rot;
* baseline handling — ``tools/checks/baseline.json`` grandfathers
  pre-existing findings keyed by ``(rule, path, line)``.  The baseline
  may only shrink: a stale entry (finding no longer produced) fails the
  check until the entry is deleted.

Rules live in :mod:`tools.checks.determinism`; the CLI driver in
:mod:`tools.checks.cli` wires them into ``make check`` / ``make lint``
and emits ``CHECK_findings.json`` for the CI artifact.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: packages whose modules are "kernel" scope: they implement the
#: deterministic substrate (CSR kernel, decomposition algorithms, and the stage runner that times every
#: task stage), so the determinism rules apply in full.
KERNEL_PACKAGES = (
    "repro/parallel",
    "repro/graph",
    "repro/decomposition",
    "repro/pipeline",
)

#: the only functions allowed to read the process environment: every
#: other callsite must go through them so each knob is read exactly
#: once.  The library has no environment knobs, so none is sanctioned
#: and ``det-env`` flags every read in ``src``.
SANCTIONED_ENV_READERS: frozenset = frozenset()

PRAGMA_RULE = "pragma"

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\(([^)]*)\)\s*(?:—|--|:)?\s*(.*)$"
)
_COMMENT_ONLY_RE = re.compile(r"^\s*#")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule firing at a file/line."""

    rule: str
    path: str  # repo-relative posix path
    line: int
    col: int
    message: str

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.rule, self.path, self.line)

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclass
class Pragma:
    """One parsed ``# repro: allow(...)`` comment."""

    line: int  # line the pragma suppresses findings on
    rules: Tuple[str, ...]
    reason: str
    used: bool = False


class SourceModule:
    """A parsed source file plus the metadata rules dispatch on."""

    def __init__(self, path: Path, relpath: str, text: str) -> None:
        self.path = path
        self.relpath = relpath
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=relpath)
        self.is_kernel = any(pkg in relpath for pkg in KERNEL_PACKAGES)
        self.pragmas: List[Pragma] = []
        self.pragma_errors: List[Finding] = []
        self._scan_pragmas()

    def _scan_pragmas(self) -> None:
        for idx, line in enumerate(self.lines, start=1):
            match = _PRAGMA_RE.search(line)
            if match is None:
                continue
            rules = tuple(
                part.strip() for part in match.group(1).split(",")
                if part.strip()
            )
            reason = match.group(2).strip()
            target = idx
            if _COMMENT_ONLY_RE.match(line):
                # a comment-only pragma covers the next *code* line
                # (comment blocks may continue the reason over several
                # lines; blanks are skipped too)
                target = idx + 1
                while target <= len(self.lines) and (
                    not self.lines[target - 1].strip()
                    or _COMMENT_ONLY_RE.match(self.lines[target - 1])
                ):
                    target += 1
            if not rules:
                self.pragma_errors.append(Finding(
                    PRAGMA_RULE, self.relpath, idx, 0,
                    "pragma names no rule: use "
                    "`# repro: allow(rule-id) — reason`",
                ))
                continue
            if len(reason) < 10:
                self.pragma_errors.append(Finding(
                    PRAGMA_RULE, self.relpath, idx, 0,
                    "pragma reason missing or too short (>= 10 chars): "
                    "every suppression must say WHY it is safe",
                ))
                continue
            self.pragmas.append(Pragma(target, rules, reason))

    def pragma_for(self, finding: Finding) -> Optional[Pragma]:
        for pragma in self.pragmas:
            if pragma.line == finding.line and finding.rule in pragma.rules:
                return pragma
        return None


class Rule:
    """One check: visit a module, yield findings.

    Subclasses set ``id``/``summary`` and implement :meth:`check`.
    ``kernel_only`` rules skip non-kernel modules up front.
    """

    id: str = ""
    summary: str = ""
    kernel_only: bool = False

    def applies(self, module: SourceModule) -> bool:
        return module.is_kernel or not self.kernel_only

    def check(self, module: SourceModule) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self, module: SourceModule, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            self.id,
            module.relpath,
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0),
            message,
        )


@dataclass
class CheckReport:
    """The outcome of one analysis run, before/after suppression."""

    active: List[Finding] = field(default_factory=list)
    suppressed: List[Tuple[Finding, Pragma]] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    stale_baseline: List[Dict[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.active and not self.stale_baseline

    def to_json(self) -> Dict[str, object]:
        return {
            "version": 1,
            "ok": self.ok,
            "counts": {
                "active": len(self.active),
                "suppressed": len(self.suppressed),
                "baselined": len(self.baselined),
                "stale_baseline": len(self.stale_baseline),
            },
            "findings": [
                dict(f.to_json(), status="active") for f in self.active
            ] + [
                dict(
                    f.to_json(),
                    status="suppressed",
                    reason=pragma.reason,
                )
                for f, pragma in self.suppressed
            ] + [
                dict(f.to_json(), status="baselined")
                for f in self.baselined
            ],
            "stale_baseline": self.stale_baseline,
        }


def collect_modules(
    root: Path, targets: Sequence[str]
) -> List[SourceModule]:
    """Parse every ``*.py`` under the target dirs (repo-relative)."""
    modules: List[SourceModule] = []
    for target in targets:
        base = root / target
        if base.is_file():
            paths = [base]
        elif base.is_dir():
            paths = sorted(base.rglob("*.py"))
        else:
            continue
        for path in paths:
            if "__pycache__" in path.parts:
                continue
            relpath = path.relative_to(root).as_posix()
            modules.append(
                SourceModule(path, relpath, path.read_text(encoding="utf-8"))
            )
    return modules


def load_baseline(path: Path) -> List[Dict[str, object]]:
    if not path.exists():
        return []
    data = json.loads(path.read_text(encoding="utf-8"))
    return list(data.get("findings", []))


def baseline_key(entry: Dict[str, object]) -> Tuple[str, str, int]:
    return (str(entry["rule"]), str(entry["path"]), int(entry["line"]))


def run_rules(
    modules: Sequence[SourceModule],
    rules: Sequence[Rule],
    baseline: Sequence[Dict[str, object]] = (),
) -> CheckReport:
    """Run every rule over every module; fold in pragmas + baseline."""
    report = CheckReport()
    raw: List[Tuple[SourceModule, Finding]] = []
    for module in modules:
        for error in module.pragma_errors:
            raw.append((module, error))
        for rule in rules:
            if not rule.applies(module):
                continue
            for finding in rule.check(module):
                raw.append((module, finding))

    baseline_keys = {baseline_key(entry) for entry in baseline}
    seen_keys: Set[Tuple[str, str, int]] = set()
    for module, finding in raw:
        pragma = (
            module.pragma_for(finding)
            if finding.rule != PRAGMA_RULE
            else None
        )
        if pragma is not None:
            pragma.used = True
            report.suppressed.append((finding, pragma))
            continue
        if finding.key in baseline_keys:
            seen_keys.add(finding.key)
            report.baselined.append(finding)
            continue
        report.active.append(finding)

    # unused pragmas rot into lies; they are findings themselves
    for module in modules:
        for pragma in module.pragmas:
            if not pragma.used:
                report.active.append(Finding(
                    PRAGMA_RULE, module.relpath, pragma.line, 0,
                    "unused pragma: no finding of "
                    f"{', '.join(pragma.rules)} on this line — delete it",
                ))

    # the baseline may only shrink: stale entries must be removed
    for entry in baseline:
        if baseline_key(entry) not in seen_keys:
            report.stale_baseline.append(entry)

    report.active.sort(key=lambda f: (f.path, f.line, f.rule))
    return report
