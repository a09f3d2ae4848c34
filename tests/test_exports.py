"""The package's public names against the library code that reads them."""

import ast
from pathlib import Path

import fraclane as fl


def names_read(source):
    """Every name the code reads, as a `Name` or as an `Attribute`'s attribute;
    comments, docstrings, imports and definitions read none."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_exported_callable_is_read_by_the_library():
    # an exported function or class that no library module reads is dead API:
    # what only the tests need lives in tests/oracles.py
    modules = [path for path in sorted(Path(fl.__file__).parent.glob("*.py"))
               if path.name != "__init__.py"]
    read = set().union(*(names_read(path.read_text()) for path in modules))
    unread = sorted(name for name in fl.__all__
                    if callable(getattr(fl, name)) and name not in read)
    assert unread == []


def test_cli_io_imports_no_private_library_name():
    # the CLI calls the library through its public names: a rule or budget it
    # would need from behind an underscore belongs to a library check instead
    tree = ast.parse((Path(fl.__file__).parent / "cli_io.py").read_text())
    private = [f"{node.module or '.'}: {alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "fraclane")
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


def test_every_private_definition_is_read_by_the_library():
    # a top-level private function, class or constant that no library module
    # reads is an orphan, such as a refactor leaves behind
    modules = sorted(Path(fl.__file__).parent.glob("*.py"))
    read = set().union(*(names_read(path.read_text()) for path in modules))
    orphans = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            orphans += [f"{path.name}: {name}" for name in names
                        if name.startswith("_") and not name.endswith("__") and name not in read]
    assert orphans == []
