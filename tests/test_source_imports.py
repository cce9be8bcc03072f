"""Every name a module of the package imports is used in it.

No linter runs on the package, and a deletion leaves stray imports behind,
so this test walks each module's syntax tree with ``ast``. A name counts as
used when it occurs as a name (an attribute's root is one), inside a
string annotation such as ``"World"``, or in ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ecuchain"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of that import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def names_in(tree: ast.AST) -> set[str]:
    """The names ``tree`` reads, those in its string annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= names_in(ast.parse(node.value, mode="eval"))
    return used


def used_names(tree: ast.Module) -> set[str]:
    used = names_in(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted(
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in used
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = '''
from __future__ import annotations
import os.path
from typing import TYPE_CHECKING, Optional
from .a import Used, Unused, Quoted, Exported

if TYPE_CHECKING:
    from .b import Hidden

__all__ = ["Exported"]


def f(x: "Quoted", y: Optional[int]) -> "Hidden":
    return os.path.join(Used.name)
'''
    assert unused_imports(source) == ["Unused (line 5)"]
