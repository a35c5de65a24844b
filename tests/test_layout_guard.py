"""Only ``model.ParamTable`` binds a model's parameter tensors.

The adapted tensors of a model are views into one flat array, which the
optimizer updates.  Rebinding an entry (``params[name] = x``), deleting one, or
rebinding a model's table (``model.params = x``) detaches tensors from that
array, so a later step would update an array the model no longer reads, or
miss one it does.  The guard walks every module of the package and fails on
such a store outside the ``ParamTable`` class, which lays the tensors out, with
one exception: ``EncoderModel.__post_init__`` may bind ``self.params`` (to a
table made from a plain dict), once, before anything can hold a view.
Writing into a tensor in place (``params[name][...] = x``) is not a rebinding.
"""

import ast
from pathlib import Path

import conceptqa

PACKAGE = Path(conceptqa.__file__).resolve().parent

HELPER = "ParamTable"
MODEL, BUILD = "EncoderModel", "__post_init__"


def _names_params(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "params") or \
        (isinstance(node, ast.Attribute) and node.attr == "params")


def rebindings(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    classes = [cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)]
    inside = {id(node) for cls in classes if cls.name == HELPER for node in ast.walk(cls)}
    # the model's one binding site: ``self.params = ...`` in its __post_init__
    inside |= {id(node) for cls in classes if cls.name == MODEL for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and fn.name == BUILD
               for stmt in ast.walk(fn) if isinstance(stmt, ast.Assign)
               for node in stmt.targets
               if isinstance(node, ast.Attribute) and node.attr == "params"
               and isinstance(node.value, ast.Name) and node.value.id == "self"}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside or not isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
            continue
        if isinstance(node, ast.Subscript) and _names_params(node.value):
            found.append(f"{path.name}:{node.lineno}: params[...]")
        elif isinstance(node, ast.Attribute) and node.attr == "params":
            found.append(f"{path.name}:{node.lineno}: .params")
    return found


def test_only_the_table_binds_parameter_tensors():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in rebindings(path)]
    assert found == []


def test_guard_sees_each_pattern(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("class ParamTable(dict):\n"
                    "    def of(cls, model):\n"
                    "        model.params = cls(model.params)\n"
                    "        params = model.params\n"
                    "        params['w'] = 0\n"
                    "def train(model, params, best):\n"
                    "    params['w'][...] = 0\n"
                    "    x = params['w'] + model.params['w']\n"
                    "    params['w'] = x\n"
                    "    model.params['w'] = x\n"
                    "    model.params = best\n"
                    "    del params['w']\n"
                    "    best, model.params = model.params, best\n"
                    "class EncoderModel:\n"
                    "    def __post_init__(self):\n"
                    "        self.params = ParamTable(self.params)\n"
                    "        self.params['w'] = 0\n"
                    "        model.params = self.params\n"
                    "    def reset(self, best):\n"
                    "        self.params = best\n", encoding="utf-8")
    assert sorted(rebindings(path)) == ["mod.py:10: params[...]",
                                        "mod.py:11: .params",
                                        "mod.py:12: params[...]",
                                        "mod.py:13: .params",
                                        "mod.py:17: params[...]",
                                        "mod.py:18: .params",
                                        "mod.py:20: .params",
                                        "mod.py:9: params[...]"]
