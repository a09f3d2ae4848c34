"""The package's public names against the library code that reads them."""

import ast
from pathlib import Path

from oracles import code_lines

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


def test_every_valued_check_derives_its_verdict():
    # `Check(name, ok)` is a flag; a check with a value and a budget is built
    # by `Check.bound`, which derives the verdict from its rule, so no module
    # states a comparison of its own beside the record
    valued = []
    for path in sorted(Path(fl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "Check"
                    and (len(node.args) > 2
                         or {k.arg for k in node.keywords} & {"value", "budget", "rule"})):
                valued.append(f"{path.name}:{node.lineno}")
    assert valued == []


def test_the_exponent_hypotheses_have_one_owner():
    # `ExponentPair` decides q >= p and epsilon >= 0 from `hyperbola_gap`, and
    # a critical partner q0 is derived from p where it is used (`critical_q`),
    # so no module takes a q0 that could disagree with p or checks one again
    modules = sorted(Path(fl.__file__).parent.glob("*.py"))
    readers = [path.stem for path in modules if "hyperbola_gap" in names_read(path.read_text())]
    assert readers == ["lane_emden"]
    takes_q0 = [f"{path.name}:{node.lineno}" for path in modules
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                and "q0" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}]
    assert takes_q0 == []


def test_a_basis_carries_its_order():
    # a basis is built on a box, and the box's s is the order of every
    # operator on it, so no function takes an s beside its basis that could
    # disagree with it; `apply_fraclap` is the exception, its order an input
    # that the semigroup check sets to s1, s2 and s1 + s2
    takes_s = [f"{path.name}: {node.name}" for path in sorted(Path(fl.__file__).parent.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and {"s", "basis"} <= {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}]
    assert takes_s == ["fractional_calculus.py: apply_fraclap"]


CODE_SNIPPET = '''"""A module docstring
over two lines."""

import math  # a trailing comment


def f(x):
    """A function docstring."""
    # a comment line

    y = (x +
         1)
    s = """a string literal
    over two lines"""
    return y, s


class C:
    """A class docstring."""

    z = math.pi
'''


def test_code_lines_counts_code_only():
    # import, def, the two lines of y, the two of s, return, class and z: no
    # blank, comment or docstring line counts
    assert code_lines(CODE_SNIPPET) == 9
    assert code_lines("") == 0
