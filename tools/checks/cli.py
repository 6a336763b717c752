"""Driver for the determinism checks.

Usage (from the repo root)::

    python -m tools.checks                   # check src, human output
    python -m tools.checks --json CHECK_findings.json
    python -m tools.checks --regen-baseline  # re-freeze the baseline
    python -m tools.checks --list-rules

Exit status is 0 only when there are no active findings AND no stale
baseline entries (the baseline may only shrink).  ``make check`` runs
this with ``--json CHECK_findings.json`` so CI can archive the full
finding set (active + suppressed + baselined) as an artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

if __package__ in (None, ""):  # script mode: python tools/checks/cli.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent))
    from tools.checks.core import (  # type: ignore[no-redef]
        CheckReport, Rule, collect_modules, load_baseline, run_rules,
    )
    from tools.checks.determinism import DETERMINISM_RULES  # type: ignore
else:
    from .core import (
        CheckReport, Rule, collect_modules, load_baseline, run_rules,
    )
    from .determinism import DETERMINISM_RULES

DEFAULT_TARGETS = ("src",)
BASELINE_NAME = "baseline.json"


def all_rules() -> List[Rule]:
    return list(DETERMINISM_RULES)


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent.parent


def default_baseline_path() -> Path:
    return Path(__file__).resolve().parent / BASELINE_NAME


def run_checks(
    root: Optional[Path] = None,
    targets: Sequence[str] = DEFAULT_TARGETS,
    baseline_path: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> CheckReport:
    """Programmatic entry point (used by tools/lint.py and the tests)."""
    root = root or repo_root()
    if baseline_path is None:
        baseline_path = default_baseline_path()
    modules = collect_modules(root, targets)
    baseline = load_baseline(baseline_path) if baseline_path else []
    return run_rules(modules, rules or all_rules(), baseline)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools.checks",
        description="repo-specific determinism checks",
    )
    parser.add_argument(
        "targets", nargs="*", default=list(DEFAULT_TARGETS),
        help="repo-relative dirs/files to check (default: src)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the full finding report (JSON) to PATH",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default=None,
        help=f"baseline file (default: tools/checks/{BASELINE_NAME})",
    )
    parser.add_argument(
        "--regen-baseline", action="store_true",
        help="rewrite the baseline from the current active findings "
        "(for grandfathering; the baseline may only shrink afterwards)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            scope = "kernel" if rule.kernel_only else "src"
            print(f"{rule.id:24s} [{scope:6s}] {rule.summary}")
        return 0

    root = repo_root()
    baseline_path = (
        Path(args.baseline) if args.baseline else default_baseline_path()
    )

    if args.regen_baseline:
        report = run_checks(root, args.targets, baseline_path=None)
        payload = {
            "comment": (
                "Grandfathered findings: tolerated by `make check` but "
                "may only shrink. Remove entries as the code they point "
                "at is fixed; stale entries fail the check."
            ),
            "findings": [f.to_json() for f in report.active],
        }
        baseline_path.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        print(
            f"check: baseline regenerated with {len(report.active)} "
            f"finding(s) -> {baseline_path}"
        )
        return 0

    report = run_checks(root, args.targets, baseline_path)

    if args.json:
        out = Path(args.json)
        out.write_text(
            json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8"
        )

    for finding in report.active:
        print(finding.render())
    for entry in report.stale_baseline:
        print(
            f"{entry['path']}:{entry['line']}: [baseline] stale entry "
            f"for rule {entry['rule']} — the finding is gone; delete it "
            "from tools/checks/baseline.json (the baseline may only "
            "shrink)"
        )
    summary = (
        f"check: {len(report.active)} active, "
        f"{len(report.suppressed)} suppressed (pragma), "
        f"{len(report.baselined)} baselined, "
        f"{len(report.stale_baseline)} stale baseline"
    )
    print(summary)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
