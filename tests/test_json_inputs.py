"""Every JSON input file is read by ``text.read_json_object``, and every JSON
output file is written by ``text.write_json``.

The guards list each ``json.load``/``json.loads`` and ``json.dump``/
``json.dumps`` call in the package by the function that makes it, so a loader
that parses a file on its own, and so skips the reader's file-and-location
error messages, fails here, as does a writer that picks its own encoding or
line ending.
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

WRITERS = {
    # the one writer of JSON output files
    ("text.py", "write_json"): 1,
    # checkpoint header bytes, written into the binary container
    ("model.py", "save_checkpoint"): 1,
    # JSON Lines: one object per line, not a JSON file
    ("data.py", "dump_encoded_jsonl"): 1,
    # the DEFAULT_CONFIG deep copy
    ("cli.py", "_load_config"): 1,
}


def _json_calls(path: Path, attrs: tuple[str, ...]) -> Counter:
    calls: Counter = Counter()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in attrs
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
            calls[(path.name, function)] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return calls


def test_json_files_are_read_only_by_read_json_object():
    found = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        found += _json_calls(path, ("load", "loads"))
    assert dict(found) == ALLOWED


def test_json_files_are_written_only_by_write_json():
    found = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        found += _json_calls(path, ("dump", "dumps"))
    assert dict(found) == WRITERS
