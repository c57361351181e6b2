"""The modules of the package share only public names with one another."""

import ast
from pathlib import Path

import rankaudit

PACKAGE = Path(rankaudit.__file__).parent


def private_imports(source: str) -> list[str]:
    """The underscore names, dunders aside, that relative imports in source pull."""
    return [f"{'.' * node.level}{node.module + '.' if node.module else ''}{alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


def test_the_guard_sees_a_private_import():
    assert private_imports("from .aggregate import _checked_tasks, __version__, aggregate\n"
                           "from . import _util\nfrom os import _exit\n") == \
        [".aggregate._checked_tasks", "._util"]


def test_no_module_imports_another_modules_private_names():
    found = {str(path.relative_to(PACKAGE)): private_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {path: names for path, names in found.items() if names} == {}
