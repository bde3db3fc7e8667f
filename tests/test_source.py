"""Source hygiene of the package, read with ``ast`` alone: no module
imports a name it never uses, and no module keeps a top-level private
name that nothing in it refers to.  Either one is left behind when the
code that used it goes."""

import ast
from pathlib import Path

import pytest

import nucx

PACKAGE = Path(nucx.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
#: The package's own imports are its public names.
IMPLEMENTATIONS = [path for path in MODULES if path.name != "__init__.py"]


def loaded_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, deletes or declares global."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                         ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            names.update(node.names)
    return names


def imported_names(tree: ast.Module) -> list[str]:
    """The names the module's import statements bind."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(alias.asname or alias.name).split(".")[0]
                      for alias in node.names]
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            names += [alias.asname or alias.name for alias in node.names]
    return names


def private_top_level(tree: ast.Module) -> list[str]:
    """The ``_private`` (not dunder) names bound at the top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                names += [n.id for n in ast.walk(target)
                          if isinstance(n, ast.Name)]
    return [name for name in names
            if name.startswith("_") and not name.startswith("__")]


@pytest.mark.parametrize("path", IMPLEMENTATIONS, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), str(path))
    used = loaded_names(tree)
    assert [name for name in imported_names(tree) if name not in used] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_orphan_private_name(path):
    tree = ast.parse(path.read_text(), str(path))
    used = loaded_names(tree)
    assert [name for name in private_top_level(tree)
            if name not in used] == []


def test_checks_see_an_orphan():
    tree = ast.parse("import os\nfrom re import sub as _sub\n"
                     "import os.path\n_LIMIT = 3\n"
                     "def _helper():\n    return sub\n")
    assert imported_names(tree) == ["os", "_sub", "os"]
    assert private_top_level(tree) == ["_LIMIT", "_helper"]
    assert loaded_names(tree) == {"sub"}
