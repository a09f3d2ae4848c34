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
