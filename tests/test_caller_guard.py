"""Every public function, class and method of the package has a caller that
is not a test.

The guard walks the AST of each module of ``conceptqa`` and lists each public
(not underscore-led) function, class and method that nothing references by
name (a ``Name``, an ``Attribute`` or an import alias) in the package outside
its own definition and ``__init__``'s re-exports, nor in ``demos/`` or
``perfbench/``.  Such a name is code no pipeline runs.  The exceptions are
the functions the acceptance suite calls itself, each under the criterion
that calls it.  Dunder methods such as ``__contains__`` are out of its reach:
an operator calls them, not a name.
"""

import ast
from collections import Counter
from pathlib import Path

import conceptqa

PACKAGE = Path(conceptqa.__file__).resolve().parent
ROOT = PACKAGE.parent.parent

# name -> the acceptance criteria (tests/test_acceptance.py) that call it
ACCEPTANCE_ONLY = {
    "model.qa_forward": "criteria 5 and 6",
    "dictionary.empty_dictionary": "criterion 3",
    "evaluation.latency_ratio": "criterion 8",
}


def _definitions(tree: ast.Module):
    """(qualified name, node) of each public module-level function and class
    and each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _references(node: ast.AST) -> Counter:
    """How often each name is referenced under ``node``."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found.update(filter(None, (sub.name.rsplit(".", 1)[-1], sub.asname)))
    return found


def uncalled(package: Path, others: list[Path]) -> list[str]:
    """Public names of the modules under ``package`` that nothing outside their
    own definitions references, in ``package`` (apart from ``__init__.py``) or
    in any ``.py`` file under ``others``."""
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    inside = sum(map(_references, modules.values()), Counter())
    outside = sum((_references(ast.parse(path.read_text(encoding="utf-8")))
                   for directory in others for path in sorted(directory.rglob("*.py"))),
                  Counter())
    found = []
    for path, tree in modules.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if not outside[name] and inside[name] == _references(node)[name]:
                found.append(f"{path.stem}.{qualname}")
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    found = uncalled(PACKAGE, [ROOT / "demos", ROOT / "perfbench"])
    assert sorted(found) == sorted(ACCEPTANCE_ONLY)


def test_guard_sees_each_kind_of_reference(tmp_path):
    package, demos = tmp_path / "pkg", tmp_path / "demos"
    package.mkdir()
    demos.mkdir()
    (package / "__init__.py").write_text("from .mod import orphan, Table\n", encoding="utf-8")
    (package / "other.py").write_text("from .mod import by_import\n", encoding="utf-8")
    (package / "mod.py").write_text(
        "def orphan(n):\n"
        "    return orphan(n - 1) if n else 0\n"
        "def by_name():\n"
        "    return 0\n"
        "def by_import():\n"
        "    return 0\n"
        "def by_demo():\n"
        "    return 1\n"
        "def _private():\n"
        "    return by_name(), Table().get(), Table.by_attribute\n"
        "class Table:\n"
        "    def get(self):\n"
        "        return 1\n"
        "    def by_attribute(self):\n"
        "        return 2\n"
        "    def lookup(self, term):\n"
        "        return self.lookup(term)\n"
        "    def __contains__(self, term):\n"
        "        return False\n", encoding="utf-8")
    (demos / "demo.py").write_text("from pkg.mod import by_demo\n", encoding="utf-8")
    assert uncalled(package, [demos]) == ["mod.orphan", "mod.Table.lookup"]
