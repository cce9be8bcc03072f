"""Every name a module of the package, a test module or a tool imports
is used in it, and so is every private name its top level defines.

No linter runs on the repo, and a deletion leaves stray imports and
helpers behind, so these tests walk each module's syntax tree with
``ast``. A name counts as used when it is read as a name (an attribute's
root is one), inside a string annotation such as ``"World"``, or in
``__all__``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ecuchain"
# The package's modules, then the tests and the tools that drive them.
MODULES = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted(ROOT.glob("tests/*.py")),
    *sorted(ROOT.glob("tools/*.py")),
]


def module_id(path: Path) -> str:
    """A package module's file name; any other file's path from the repo root."""
    return path.name if path.parent == PACKAGE else path.relative_to(ROOT).as_posix()


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
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
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


def unused(source: str, bound) -> list[str]:
    """Each name that ``bound(tree)`` finds in ``source`` and nothing
    there reads, with its line.
    """
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted(
        f"{name} (line {line})"
        for name, line in bound(tree).items()
        if name not in used
    )


def private_names(tree: ast.Module) -> dict[str, int]:
    """Each private name (one leading underscore, no dunder) that a
    top-level ``def``, ``class`` or assignment binds, with its line.
    """
    names = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            bound = [node.name]
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_module_imports_only_names_it_uses(path):
    assert unused(path.read_text(), imported_names) == []


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_module_uses_every_private_name_it_defines(path):
    assert unused(path.read_text(), private_names) == []


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
    assert unused(source, imported_names) == ["Unused (line 5)"]


def test_an_unused_private_name_is_found():
    source = '''
from typing import Optional

_TABLE = {"a": 1}
_Pair = tuple[int, int]
_stored = None
__version__ = "1"


def _helper():
    return _TABLE


class _Unread:
    pass


def public(x: "_Pair") -> Optional[int]:
    global _stored
    _stored = x
    return _helper()["a"]
'''
    assert unused(source, private_names) == ["_Unread (line 14)", "_stored (line 6)"]


def test_the_package_root_loads_no_module_of_its_own():
    """``import ecuchain`` alone, in a fresh interpreter, loads none of the
    package's modules, and with them not libsodium.
    """
    code = (
        "import sys, ecuchain\n"
        "print(ecuchain.__version__)\n"
        "print(sorted(m for m in sys.modules if m.startswith('ecuchain.')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[1] == "[]"
