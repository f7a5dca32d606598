"""The package's public names: every __all__ entry exists, and the package
re-exports exactly the names its modules declare public."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ptcsim

MODULES = sorted(m.name for m in pkgutil.iter_modules(ptcsim.__path__))
#: The modules whose __all__ the package re-exports; cli, the entry point, declares none.
EXPORTED = [name for name in MODULES if hasattr(importlib.import_module(f"ptcsim.{name}"), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"ptcsim.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"ptcsim.{name}.__all__ names what the module lacks: {missing}"


@pytest.mark.parametrize("name", EXPORTED)
def test_package_reexports_only_public_names(name):
    """Each of the module's public names is in ptcsim.__all__, as the same object."""
    module = importlib.import_module(f"ptcsim.{name}")
    absent = [n for n in module.__all__ if n not in ptcsim.__all__]
    assert not absent, f"ptcsim.__all__ lacks names of ptcsim.{name}.__all__: {absent}"
    other = [n for n in module.__all__ if getattr(ptcsim, n) is not getattr(module, n)]
    assert not other, f"ptcsim binds other objects than ptcsim.{name} to: {other}"


def test_package_all_is_the_union_of_the_module_lists():
    """ptcsim.__all__ names each public name of the re-exported modules once, and nothing else."""
    declared = [n for name in EXPORTED for n in importlib.import_module(f"ptcsim.{name}").__all__]
    assert sorted(ptcsim.__all__) == sorted(set(declared)) == sorted(declared)


@pytest.mark.parametrize("name", MODULES)
def test_no_import_inside_a_function(name):
    """Every import is at module level, so an import cycle fails when the package loads."""
    tree = ast.parse(Path(importlib.import_module(f"ptcsim.{name}").__file__).read_text())
    nested = [
        f"line {node.lineno}"
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, f"ptcsim.{name} imports inside a function at {nested}"


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_read(name):
    """No module imports a name it never reads.

    `from __future__` and an alias marked `# noqa: F401` are exempt.  The
    package's __init__, which re-exports what it imports, is not in MODULES.
    """
    source = Path(importlib.import_module(f"ptcsim.{name}").__file__).read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]: alias.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if "# noqa: F401" not in lines[alias.lineno - 1]
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = [f"{n} (line {line})" for n, line in imported.items() if n not in read]
    assert not unused, f"ptcsim.{name} imports names it never reads: {unused}"


def test_every_private_module_name_is_read():
    """Every module-level _name a ptcsim module defines is read somewhere in the package.

    A name counts as defined by a def, a class or an assignment at module
    level, and as read by a `Name` load or an attribute of that name in any
    package module, __init__ included.  Dunder names are exempt.
    """
    trees = {
        name: ast.parse(Path(importlib.import_module(f"ptcsim.{name}").__file__).read_text())
        for name in MODULES
    }
    trees["__init__"] = ast.parse(Path(ptcsim.__file__).read_text())
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [
                f"ptcsim.{module}.{n} (line {node.lineno})"
                for n in names if n.startswith("_") and not n.startswith("__") and n not in read
            ]
    assert not unread, f"private names no package module reads: {unread}"
