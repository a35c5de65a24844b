"""Encode caches live on the object a command loads, never at module level.

A module-level ``functools`` cache in the encoding modules outlives the
command: in one process, an earlier command warms it for a later one, so a
second run reads faster than any fresh ``conceptqa`` process does.  The
guard walks ``text.py``, ``tokenizer.py`` and ``data.py`` and fails on
``functools.cache``, ``functools.lru_cache`` and ``functools.cached_property``,
used as ``functools.<name>`` or imported from ``functools``.
"""

import ast
from pathlib import Path

import conceptqa

PACKAGE = Path(conceptqa.__file__).resolve().parent
ENCODING_MODULES = ("text.py", "tokenizer.py", "data.py")
CACHES = {"cache", "lru_cache", "cached_property"}


def functools_caches(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr in CACHES
                and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append(f"{path.name}:{node.lineno}: functools.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"{path.name}:{node.lineno}: functools.{alias.name}"
                      for alias in node.names if alias.name in CACHES]
    return found


def test_encoding_modules_keep_no_functools_cache():
    found = []
    for name in ENCODING_MODULES:
        found += functools_caches(PACKAGE / name)
    assert found == []


def test_guard_sees_each_pattern(tmp_path):
    path = tmp_path / "encoder.py"
    path.write_text("import functools\n"
                    "from functools import lru_cache, reduce\n"
                    "@functools.cache\n"
                    "def split(word): ...\n"
                    "@functools.lru_cache(maxsize=None)\n"
                    "def pieces(word): ...\n"
                    "class Vocab:\n"
                    "    @functools.cached_property\n"
                    "    def ids(self): ...\n"
                    "norm = functools.lru_cache(maxsize=64)(str.lower)\n"
                    "total = functools.reduce(max, [1, 2])\n", encoding="utf-8")
    assert functools_caches(path) == [
        "encoder.py:2: functools.lru_cache", "encoder.py:3: functools.cache",
        "encoder.py:5: functools.lru_cache", "encoder.py:8: functools.cached_property",
        "encoder.py:10: functools.lru_cache"]
