"""The quick demos run to completion against the current API.

Demo 05 (the ablation study) trains four models and takes tens of seconds,
so it is left out here and run by hand; the import check below still covers
the package names every demo, 05 included, imports.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK_DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_quick_demos_found():
    assert [p.name[:2] for p in QUICK_DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", QUICK_DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(demo):
    """Every name a demo imports ``from conceptqa...`` exists in that module."""
    imports = [node for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "conceptqa"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, f"{demo.name}: {node.module} has no {missing}"
