"""The public-API surface must match the frozen snapshot.

``tools/api_surface.py`` freezes every ``repro.__all__`` export with
its signature; this test (and the lint job) fails on accidental
breakage.  Intentional changes: re-freeze with

    PYTHONPATH=src python tools/api_surface.py --regen

and commit the ``tools/api_surface.json`` diff alongside the change.
"""

import os
import sys

TOOLS_DIR = os.path.join(os.path.dirname(__file__), "..", "tools")
sys.path.insert(0, os.path.abspath(TOOLS_DIR))

import api_surface  # noqa: E402


def test_snapshot_exists():
    assert os.path.exists(api_surface.SNAPSHOT_PATH), (
        "no frozen API surface; run tools/api_surface.py --regen"
    )


def test_surface_matches_snapshot():
    frozen = api_surface.load_snapshot()
    current = api_surface.compute_surface()
    drift = api_surface.diff_surface(frozen, current)
    assert not drift, (
        "public API surface drifted:\n" + "\n".join(drift)
        + "\nIf intentional: PYTHONPATH=src python tools/api_surface.py --regen"
    )


def test_surface_covers_unified_api():
    surface = api_surface.load_snapshot()
    for name in (
        "decompose", "Session", "DecompositionConfig",
        "register_task",
        "forest_decomposition", "low_outdegree_orientation",
    ):
        assert name in surface, name


def test_diff_reports_changes():
    drift = api_surface.diff_surface(
        {"a": {"type": "function", "signature": "(x)"}, "gone": {"type": "module"}},
        {"a": {"type": "function", "signature": "(x, y)"}, "new": {"type": "module"}},
    )
    text = "\n".join(drift)
    assert "removed export: gone" in text
    assert "new export" in text and "new" in text
    assert "changed: a" in text
