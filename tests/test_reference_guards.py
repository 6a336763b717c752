"""Guards on the test-only reference package (``tests/reference/``).

The reference implementations are what the kernel is checked against,
so they must stay independent of it, and the library must never lean
on them:

* no module of the package imports the kernel modules
  (``repro.graph.csr``, ``repro.graph.dynforest``);
* ``import repro`` loads no module of the package, even with the
  package importable.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
REFERENCE = TESTS / "reference"
SRC = TESTS.parent / "src"
KERNEL_MODULES = ("repro.graph.csr", "repro.graph.dynforest")


@pytest.mark.parametrize(
    "path", sorted(REFERENCE.glob("*.py")), ids=lambda p: p.name
)
def test_reference_package_never_imports_the_kernel(path):
    """Every absolute module an import can bind (``from a.b import c``
    counts as ``a.b`` and ``a.b.c``) stays outside the kernel."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            assert not name.startswith(KERNEL_MODULES), f"{path.name}: {name}"


def test_import_repro_loads_no_reference_module():
    probe = (
        "import json, sys\n"
        "import repro, repro.core, repro.graph, repro.decomposition\n"
        "print(json.dumps(sorted(\n"
        "    name for name, module in sys.modules.items()\n"
        "    if name.split('.')[0] in ('reference', 'tests')\n"
        "    or str(getattr(module, '__file__', '') or '').startswith(\n"
        "        sys.argv[1])\n"
        ")))\n"
    )
    env = dict(os.environ)
    # The package is importable in the probe, so only an actual import
    # from the library could load it.
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS)])
    out = subprocess.run(
        [sys.executable, "-c", probe, str(REFERENCE)],
        check=True, capture_output=True, text=True, env=env,
    ).stdout
    assert json.loads(out) == []
