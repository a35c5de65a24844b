"""The package runs on numpy and the standard library alone.

The guard walks every module of the package and fails on an import of any
other top-level package, at module level or inside a function, and on a
``pyproject.toml`` that lists a runtime dependency other than numpy.  A
subprocess that blocks scipy still imports every module and runs a forward
and backward pass in float32 and float64.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import conceptqa

PACKAGE = Path(conceptqa.__file__).resolve().parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "conceptqa"}


def outside_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {name}" for name in names
                  if name.split(".")[0] not in ALLOWED]
    return found


def test_package_imports_only_numpy_and_the_standard_library():
    assert [hit for path in sorted(PACKAGE.glob("*.py"))
            for hit in outside_imports(path)] == []


def test_guard_sees_each_import_form(tmp_path):
    module = tmp_path / "model.py"
    module.write_text("import math\n"
                      "import numpy as np\n"
                      "from numpy.lib.stride_tricks import sliding_window_view\n"
                      "from . import gating\n"
                      "from .gating import GateParams\n"
                      "import scipy.special\n"
                      "from scipy.special import erf\n"
                      "def gelu(u):\n"
                      "    from scipy import special\n"
                      "    import os, torch\n", encoding="utf-8")
    assert outside_imports(module) == ["model.py:6: scipy.special", "model.py:7: scipy.special",
                                       "model.py:9: scipy", "model.py:10: torch"]


def test_pyproject_lists_only_numpy():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]] \
        == ["numpy"]


def test_package_runs_with_scipy_blocked():
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import pkgutil, importlib, numpy as np, conceptqa\n"
        "for info in pkgutil.iter_modules(conceptqa.__path__):\n"
        "    importlib.import_module('conceptqa.' + info.name)\n"
        "from conceptqa import model as M\n"
        "cfg = M.ModelConfig(layers=1, hidden=8, heads=2, vocab_size=32, max_len=16)\n"
        "for dtype in (np.float32, np.float64):\n"
        "    m = M.build_model(cfg, seed=0, dtype=dtype)\n"
        "    h, caches = M.encoder_forward(m, np.arange(4, 12), np.full(8, 2.0),\n"
        "                                  return_caches=True)\n"
        "    grads = M.encoder_backward(m, np.ones_like(h), caches)\n"
        "    assert h.dtype == dtype and np.isfinite(h).all() and grads\n"
        "assert 'scipy' not in {name.split('.')[0] for name, mod in sys.modules.items()\n"
        "                       if mod is not None}\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
