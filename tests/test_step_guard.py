"""Both training loops take their steps from ``training._steps``.

The guard walks ``training.py`` and fails on a ``permutation`` or
``lr_schedule`` call outside that iterator, apart from the up-front schedule
check ``lr_schedule(0, ...)``: each is a second copy of the epoch order or
the learning-rate walk that can drift from the first.
"""

import ast
from pathlib import Path

import conceptqa

TRAINING = Path(conceptqa.__file__).resolve().parent / "training.py"


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _is_schedule_check(call: ast.Call) -> bool:
    first = call.args[0] if call.args else None
    return isinstance(first, ast.Constant) and first.value == 0


def steps_outside_iterator(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_steps"
              for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        name = _called_name(node)
        if name == "permutation" or (name == "lr_schedule" and not _is_schedule_check(node)):
            found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_only_the_step_iterator_orders_and_schedules():
    assert steps_outside_iterator(TRAINING) == []


def test_guard_sees_each_pattern(tmp_path):
    path = tmp_path / "loop.py"
    path.write_text("def _steps(usable, cfg, total):\n"
                    "    order = rng.permutation(len(usable))\n"
                    "    yield 1, lr_schedule(1, cfg, total), order\n"
                    "def loop(usable, cfg, total):\n"
                    "    lr_schedule(0, cfg, total)\n"
                    "    order = np.random.default_rng(0).permutation(len(usable))\n"
                    "    lr = lr_schedule(step + 1, cfg, total)\n", encoding="utf-8")
    assert sorted(steps_outside_iterator(path)) == ["loop.py:6: permutation",
                                                    "loop.py:7: lr_schedule"]
