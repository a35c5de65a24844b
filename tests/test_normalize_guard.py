"""``text.normalize_words`` is the one way to a normalized word list.

The guard walks every other module of the package and fails on a ``.split``
of a ``normalize_text(...)`` result, called directly or through a name bound
to one: that joins the words with spaces only to cut them apart again.
"""

import ast
from pathlib import Path

import conceptqa

PACKAGE = Path(conceptqa.__file__).resolve().parent


def _is_normalize_text_call(node) -> bool:
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "normalize_text"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "normalize_text")


def split_of_normalized_text(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {target.id for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and _is_normalize_text_call(node.value)
             for target in node.targets if isinstance(target, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "split"):
            value = node.func.value
            if _is_normalize_text_call(value) or (isinstance(value, ast.Name)
                                                  and value.id in bound):
                found.append(f"{path.name}:{node.lineno}: split of normalize_text")
    return found


def test_only_text_splits_normalized_text():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "text.py":
            found += split_of_normalized_text(path)
    assert found == []


def test_guard_sees_each_pattern(tmp_path):
    path = tmp_path / "splitter.py"
    path.write_text("words = normalize_text(doc).split()\n"
                    "parts = text.normalize_text(doc).split(' ')\n"
                    "norm = normalize_text(doc)\n"
                    "more = norm.split()\n"
                    "fine = doc.split()\n", encoding="utf-8")
    assert split_of_normalized_text(path) == [
        "splitter.py:1: split of normalize_text", "splitter.py:2: split of normalize_text",
        "splitter.py:4: split of normalize_text"]
