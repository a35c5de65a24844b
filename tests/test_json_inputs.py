"""Every JSON input file is read by ``text.read_json_object``.

The guard lists each ``json.load``/``json.loads`` call in the package by the
function that makes it, so a loader that parses a file on its own, and so
skips the reader's file-and-location error messages, fails here.
"""

import ast
from collections import Counter
from pathlib import Path

import conceptqa

PACKAGE = Path(conceptqa.__file__).resolve().parent

ALLOWED = {
    # the one reader of JSON input files
    ("text.py", "read_json_object"): 1,
    # checkpoint header bytes, read and length-checked from the binary container
    ("model.py", "load_checkpoint"): 1,
    # the DEFAULT_CONFIG deep copy, and each --set value
    ("cli.py", "_load_config"): 2,
}


def _json_load_calls(path: Path) -> Counter:
    calls: Counter = Counter()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("load", "loads")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
            calls[(path.name, function)] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return calls


def test_json_files_are_read_only_by_read_json_object():
    found = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        found += _json_load_calls(path)
    assert dict(found) == ALLOWED
