"""``tokenizer.py`` is the one module that turns words into pieces and packs them.

The guard walks every other module of the package and fails on a call of
``encode_word``, a read of ``cls_id``/``sep_id``, or a comparison of
``segment_flags`` with an integer literal instead of a ``SEG_*`` constant:
each is a second copy of the packing layout that can drift from the first.
"""

import ast
from pathlib import Path

import conceptqa

PACKAGE = Path(conceptqa.__file__).resolve().parent


def _is_segment_flags(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "segment_flags"


def _is_int_literal(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def packing_outside_tokenizer(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in ("encode_word", "cls_id", "sep_id"):
            found.append(f"{path.name}:{node.lineno}: {node.attr}")
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_segment_flags, operands)) and any(map(_is_int_literal, operands)):
                found.append(f"{path.name}:{node.lineno}: segment_flags compared with a literal")
    return found


def test_only_tokenizer_packs_sequences():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "tokenizer.py":
            found += packing_outside_tokenizer(path)
    assert found == []


def test_guard_sees_each_pattern(tmp_path):
    path = tmp_path / "packer.py"
    path.write_text("ids = [vocab.cls_id, *vocab.encode_word(w), vocab.sep_id]\n"
                    "ctx = ex.segment_flags == 2\n", encoding="utf-8")
    assert sorted(packing_outside_tokenizer(path)) == [
        "packer.py:1: cls_id", "packer.py:1: encode_word", "packer.py:1: sep_id",
        "packer.py:2: segment_flags compared with a literal"]
