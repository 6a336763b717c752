"""The stdlib-``ast`` unused-import check ``tools/lint.py`` falls back
to when pyflakes is not installed."""

import os
import sys
from pathlib import Path

TOOLS_DIR = os.path.join(os.path.dirname(__file__), "..", "tools")
sys.path.insert(0, os.path.abspath(TOOLS_DIR))

import lint  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _findings(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return [f.split(": ", 1)[1] for f in lint.unused_imports(path)]


def test_reports_unused_module_level_imports(tmp_path):
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import (\n"
        "    Dict,\n"
        "    List,\n"
        ")\n"
        "from json import dumps as encode\n"
        "\n"
        "def f(x: Dict[int, int]):\n"
        "    import random  # function-level: not checked\n"
        "    return x\n"
    )
    assert _findings(tmp_path, source) == [
        "'math' imported but unused",
        "'os.path' imported but unused",
        "'List' imported but unused",
        "'dumps' imported but unused",
    ]


def test_respects_uses_all_noqa_and_string_annotations(tmp_path):
    source = (
        "import os.path\n"
        "import sys  # noqa: F401\n"
        "from typing import Optional, Tuple\n"
        "from collections import OrderedDict\n"
        "from json import dumps\n"
        "try:\n"
        "    import numpy as np\n"
        "except ImportError:\n"
        "    np = None\n"
        "__all__ = ['dumps']\n"
        "cache: 'OrderedDict[int, Tuple[int, int]]' = OrderedDict()\n"
        "def f(x: 'Optional[int]') -> str:\n"
        "    return os.path.join(str(x), str(np))\n"
    )
    assert _findings(tmp_path, source) == []


def test_init_modules_are_re_exports(tmp_path):
    assert _findings(tmp_path, "from json import dumps\n", "__init__.py") == []


def test_tree_has_no_unused_imports():
    findings = [
        finding
        for target in lint.TARGETS
        for path in lint._python_files(ROOT / target)
        for finding in lint.unused_imports(path)
    ]
    assert findings == []
