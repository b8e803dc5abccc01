"""Every module-level import, private function, private class, private method and private
attribute in the package is used, every function the package exports and every public method
and property of a class it exports is used outside the tests, and every name a module exports
exists.

Deleting a function tends to leave its imports, helpers and ``__all__`` entry
behind, and no linter runs on this tree, so this walks the syntax tree of each
module instead and star-imports each one.  ``__init__.py`` is exempt from the
import check: its imports are the package's re-exports.
"""

import ast
import inspect
from functools import cached_property
from pathlib import Path

import pytest

import conekit

PACKAGE = sorted(Path(conekit.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
BENCHMARKS = sorted((Path(__file__).parent.parent / "benchmarks").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom math import pi, tau\n"
                          "print(sys.argv, tau)\n") == ["line 1: os", "line 3: pi"]


def referenced_names(trees) -> set:
    """Every name the syntax trees use: read, taken as an attribute or imported."""
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return referenced


def unused_private_functions(sources: dict) -> list[str]:
    """Module-level ``def _name`` and ``class _Name`` of any module that no module references."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    referenced = referenced_names(trees.values())
    return [f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
            and node.name not in referenced]


def test_no_unused_private_function():
    assert unused_private_functions({p.name: p.read_text() for p in PACKAGE}) == []


def test_checker_flags_an_unused_private_function():
    assert unused_private_functions({
        "a.py": "def _dead():\n    pass\ndef _imported():\n    pass\n"
                "def _called():\n    pass\ndef _attribute():\n    pass\n"
                "def public():\n    return _called()\n"
                "class _DeadClass:\n    pass\nclass _RaisedClass(Exception):\n    pass\n",
        "b.py": "import a\nfrom a import _imported\nclass C:\n    def _method(self):\n"
                "        raise a._RaisedClass(a._attribute)\n",
    }) == ["a.py: _dead", "a.py: _DeadClass"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unused_private_methods(sources: dict) -> list[str]:
    """``def _name`` in a class body of any module that no module references."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    referenced = referenced_names(trees.values())
    return [f"{name}: {cls.name}.{node.name}" for name, tree in trees.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(node.name)
            and node.name not in referenced]


def test_no_unused_private_method():
    assert unused_private_methods({p.name: p.read_text() for p in PACKAGE}) == []


def test_checker_flags_an_unused_private_method():
    assert unused_private_methods({
        "a.py": "class A:\n    def __init__(self):\n        self._called()\n"
                "    def _called(self):\n        pass\n    def _dead(self):\n        pass\n"
                "    @staticmethod\n    def _elsewhere():\n        pass\n",
        "b.py": "import a\nprint(a.A._elsewhere())\n",
    }) == ["a.py: A._dead"]


def unread_private_attributes(sources: dict) -> list[str]:
    """``self._name`` that some module stores and no module reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)}
    stored = {(name, node.attr): None for name, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"
              and _private(node.attr)}
    return [f"{name}: self.{attr}" for name, attr in stored if attr not in read]


def test_no_unread_private_attribute():
    assert unread_private_attributes({p.name: p.read_text() for p in PACKAGE}) == []


def test_checker_flags_an_unread_private_attribute():
    assert unread_private_attributes({
        "a.py": "class A:\n    def __init__(self):\n        self._read = 1\n"
                "        self._dead = 2\n        self._dead = 3\n        self.public = 4\n"
                "        self._elsewhere = 5\n    def get(self):\n        return self._read\n",
        "b.py": "import a\nprint(a.A()._elsewhere)\n",
    }) == ["a.py: self._dead"]


def unreferenced_exports(names, sources: dict) -> list[str]:
    """The names that no source references; ``Class.member`` counts as its member's name."""
    referenced = referenced_names(ast.parse(text) for text in sources.values())
    return [name for name in names if name.rsplit(".", 1)[-1] not in referenced]


def public_members(cls) -> list[str]:
    """The public methods and properties that a class defines itself, as ``Class.member``."""
    kinds = (property, cached_property, classmethod, staticmethod)
    return [f"{cls.__name__}.{name}" for name, value in vars(cls).items()
            if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))]


def test_every_exported_function_is_used_outside_the_tests():
    # public API that only the tests call is deleted; the benchmark smoke tests count as tests
    exported = [getattr(conekit, name) for name in conekit.__all__]
    names = [value.__name__ for value in exported if inspect.isfunction(value)]
    names += [member for value in exported if inspect.isclass(value)
              for member in public_members(value)]
    sources = {p.name: p.read_text() for p in MODULES}
    sources.update({f"benchmarks/{p.name}": p.read_text() for p in BENCHMARKS
                    if p.name != "test_smoke.py"})
    assert unreferenced_exports(names, sources) == []


def test_checker_flags_an_unreferenced_export():
    assert unreferenced_exports(["called", "imported", "attribute", "listed", "defined",
                                 "A.method", "A.dead"], {
        "a.py": "def defined():\n    return called()\n",
        "b.py": "import a\nfrom a import imported\n__all__ = ['listed']\nprint(a.attribute)\n"
                "a.A().method()\n",
    }) == ["listed", "defined", "A.dead"]


def test_public_members_lists_methods_and_properties():
    class A:
        LIMIT = 3

        def method(self):
            pass

        @property
        def prop(self):
            pass

        @cached_property
        def cached(self):
            pass

        @classmethod
        def build(cls):
            pass

        def _private(self):
            pass

    assert public_members(A) == ["A.method", "A.prop", "A.cached", "A.build"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_name_in_all_exists(path):
    # a star import raises AttributeError on an __all__ entry that the module lacks
    module = "conekit" if path.name == "__init__.py" else f"conekit.{path.stem}"
    exec(f"from {module} import *", {})
