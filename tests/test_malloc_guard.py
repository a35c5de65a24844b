"""Only the command line changes the process-wide allocator state.

``cli.main`` calls ``cli._keep_freed_heap``, which sets glibc's malloc
thresholds through ``ctypes``.  The guard walks every module of the package
and fails on a ``ctypes`` import outside ``cli.py``, on a use of ``ctypes`` or
``mallopt`` outside that helper, and on a call of the helper outside
``main``: a library user who imports ``conceptqa`` keeps the process's
allocator defaults.
"""

import ast
from pathlib import Path

import conceptqa

PACKAGE = Path(conceptqa.__file__).resolve().parent

HELPER, CALLER = "_keep_freed_heap", "main"


def _inside(tree: ast.AST, name: str) -> set[int]:
    return {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == name
            for node in ast.walk(fn)}


def _imports_ctypes(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "ctypes" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ctypes"


def _allocator_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name) and node.id in ("ctypes", "mallopt"):
        return node.id
    return "mallopt" if isinstance(node, ast.Attribute) and node.attr == "mallopt" else None


def allocator_changes(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    is_cli = path.name == "cli.py"
    helper, caller = _inside(tree, HELPER), _inside(tree, CALLER)
    found = []
    for node in ast.walk(tree):
        if _imports_ctypes(node):
            hit = None if is_cli else "import ctypes"
        elif _allocator_name(node):
            hit = None if is_cli and id(node) in helper else _allocator_name(node)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == HELPER:
            hit = None if is_cli and id(node) in caller else HELPER
        else:
            hit = None
        if hit:
            found.append(f"{path.name}:{node.lineno}: {hit}")
    return found


def test_only_main_changes_the_allocator():
    assert [hit for path in sorted(PACKAGE.glob("*.py"))
            for hit in allocator_changes(path)] == []


def test_guard_sees_each_pattern(tmp_path):
    cli = tmp_path / "cli.py"
    cli.write_text("import ctypes\n"
                   "def _keep_freed_heap():\n"
                   "    return ctypes.CDLL(None).mallopt(-3, 1)\n"
                   "def main():\n"
                   "    _keep_freed_heap()\n"
                   "def cmd_train(args):\n"
                   "    _keep_freed_heap()\n"
                   "    ctypes.CDLL(None).mallopt(-1, 1)\n", encoding="utf-8")
    assert sorted(allocator_changes(cli)) == ["cli.py:7: _keep_freed_heap",
                                              "cli.py:8: ctypes", "cli.py:8: mallopt"]
    lib = tmp_path / "model.py"
    lib.write_text("import ctypes.util\n"
                   "from ctypes import CDLL\n"
                   "mallopt = CDLL(None).mallopt\n", encoding="utf-8")
    assert sorted(allocator_changes(lib)) == ["model.py:1: import ctypes",
                                              "model.py:2: import ctypes",
                                              "model.py:3: mallopt", "model.py:3: mallopt"]
