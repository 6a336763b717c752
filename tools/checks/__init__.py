"""Repo-specific static analysis: determinism checks.

Run as ``python -m tools.checks`` (or ``make check``).  See
``docs/determinism.md`` for the contract, the rule catalog, and the
pragma/baseline workflow.
"""

from .cli import all_rules, main, run_checks
from .core import CheckReport, Finding, Rule

__all__ = [
    "CheckReport",
    "Finding",
    "Rule",
    "all_rules",
    "main",
    "run_checks",
]
