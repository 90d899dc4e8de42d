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


def test_every_definition_has_a_caller_outside_tests():
    """A top-level def or class of the package that only tests reference
    belongs in tests/oracles.py.  References from inside the definition
    itself do not count."""
    statements = []                     # (path, defined name or None, refs)
    for root in CALLER_DIRS:
        for path in sorted(root.rglob("*.py")):
            for stmt in ast.parse(path.read_text(), filename=str(path)).body:
                name = getattr(stmt, "name", None)
                statements.append((path, name, set(_references(stmt))))
    uncalled = [f"{path.name}:{name}" for path, name, _ in statements
                if name is not None and path.parent == SRC
                and not any(name in refs for other, owner, refs in statements
                            if (other, owner) != (path, name))]
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
