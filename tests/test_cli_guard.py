"""Every model command runs through the same helpers in ``cli.py``.

The guard walks ``cli.py`` and fails on a ``load_checkpoint`` call outside
``_open_checkpoint``, a ``train_two_stage`` call outside ``_train``, and a
``_write_manifest`` call whose first argument is not ``args``: each is a
second copy of the checkpoint checks, of the divergence handling, or of the
command name, output directory and input list, and can drift from the first.
"""

import ast
from pathlib import Path

import conceptqa

CLI = Path(conceptqa.__file__).resolve().parent / "cli.py"

ONLY_INSIDE = {"load_checkpoint": "_open_checkpoint", "train_two_stage": "_train"}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def glue_outside_helpers(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    home = {id(node): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node)
        if name in ONLY_INSIDE and home.get(id(node)) != ONLY_INSIDE[name]:
            found.append(f"{path.name}:{node.lineno}: {name}")
        first = node.args[0] if node.args else None
        if name == "_write_manifest" and not (isinstance(first, ast.Name)
                                              and first.id == "args"):
            found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_model_commands_share_the_helpers():
    assert glue_outside_helpers(CLI) == []


def test_guard_sees_each_pattern(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text("def _open_checkpoint(path):\n"
                    "    return model_mod.load_checkpoint(path)\n"
                    "def _train(model):\n"
                    "    return training.train_two_stage(model)\n"
                    "def cmd_eval(args):\n"
                    "    model = model_mod.load_checkpoint(args.checkpoint)\n"
                    "    training.train_two_stage(model)\n"
                    "    _write_manifest(Path(args.out), 'eval', {}, [], None)\n"
                    "    _write_manifest(args, {}, [], None)\n", encoding="utf-8")
    assert sorted(glue_outside_helpers(path)) == ["cli.py:6: load_checkpoint",
                                                  "cli.py:7: train_two_stage",
                                                  "cli.py:8: _write_manifest"]
