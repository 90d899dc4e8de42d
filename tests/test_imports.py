"""Every name a package module imports is used in that module, every
top-level definition of the package has a caller outside the tests, and
every parameter of a package function is read by its body.

`__init__.py` is skipped because its imports are the public API, and
`from __future__` imports are compiler directives, not names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tiltrec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# code outside tests/ that may call the package
CALLER_DIRS = [SRC.parent, SRC.parent.parent / "demos",
               SRC.parent.parent / "perfbench"]


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used(tree):
    """Names loaded anywhere, including inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(set(_imported(tree)) - _used(tree))
    assert not unused, f"{path.name} imports unused names: {unused}"


def _references(node):
    """Names a statement loads, reads as an attribute, imports, or spells
    as a string (perfbench wraps package functions by their names)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _units(stmt):
    """(method name or None, references) for a top-level statement: a class
    splits into its methods and the rest of its body, any other statement is
    one unit."""
    if not isinstance(stmt, ast.ClassDef):
        yield None, set(_references(stmt))
        return
    methods = [m for m in stmt.body
               if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for method in methods:
        yield method.name, set(_references(method))
    rest = [sub for sub in stmt.bases + stmt.keywords + stmt.decorator_list
            + stmt.body if sub not in methods]
    yield None, {ref for sub in rest for ref in _references(sub)}


def test_every_definition_has_a_caller_outside_tests():
    """A top-level def or class of the package, or a method of a top-level
    class, that only tests reference belongs in tests/oracles.py.
    References from inside the definition itself do not count; a method
    called by another method of its class has a caller."""
    units = []          # (path, top-level name or None, method or None, refs)
    for root in CALLER_DIRS:
        for path in sorted(root.rglob("*.py")):
            for stmt in ast.parse(path.read_text(), filename=str(path)).body:
                name = getattr(stmt, "name", None)
                units += [(path, name, method, refs)
                          for method, refs in _units(stmt)]
    uncalled = []
    for path, name, method, _ in units:
        if name is None or path.parent != SRC:
            continue
        if method is None:
            callers = [refs for other, owner, _, refs in units
                       if (other, owner) != (path, name)]
        elif method.startswith("__") and method.endswith("__"):
            continue
        else:
            callers = [refs for other, owner, meth, refs in units
                       if (other, owner, meth) != (path, name, method)]
        if not any((method or name) in refs for refs in callers):
            uncalled.append(f"{path.name}:{name}"
                            + (f".{method}" if method else ""))
    uncalled = sorted(set(uncalled))
    assert not uncalled, f"defined in src/tiltrec, called only from tests: " \
                         f"{uncalled}"


def _unread_parameters(tree):
    """(function name, parameter) for every parameter, other than self/cls,
    that its function body never loads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        loaded = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                  if isinstance(sub, ast.Name)
                  and isinstance(sub.ctx, ast.Load)}
        for arg in params:
            if arg.arg not in ("self", "cls") and arg.arg not in loaded:
                yield node.name, arg.arg


def test_every_parameter_is_read():
    """A parameter that no caller's value can affect is dead API."""
    unread = [f"{path.name}:{name}({param})"
              for path in sorted(SRC.glob("*.py"))
              for name, param in _unread_parameters(
                  ast.parse(path.read_text(), filename=str(path)))]
    assert not unread, f"parameters never read: {unread}"
