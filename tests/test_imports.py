"""Every name a package module imports is used in that module, every
top-level definition of the package has a caller outside the tests, and
every parameter of a package function is read by its body.  Only
moments.py reads the moment data.  The package imports only the standard
library, numpy and itself, and the commands run without loading scipy.

`__init__.py` is skipped by the unused-import check because its imports are
the public API, and `from __future__` imports are compiler directives, not
names.
"""

import ast
import json
import os
import subprocess
import sys
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


MOMENT_DATA = {"b1", "B2", "t_mu", "T_C"}


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "moments.py"],
                         ids=lambda p: p.name)
def test_only_moments_reads_the_moment_data(path):
    """moments.MomentModel is the one holder of the moment model: no other
    package module reads the attributes b1, B2, t_mu or T_C."""
    reads = sorted(f"line {node.lineno}: .{node.attr}"
                   for node in ast.walk(ast.parse(path.read_text(),
                                                  filename=str(path)))
                   if isinstance(node, ast.Attribute)
                   and node.attr in MOMENT_DATA)
    assert not reads, f"{path.name} reads moment data: {reads}"


ALLOWED_IMPORTS = set(sys.stdlib_module_names) | {"numpy"}


def _foreign_imports(tree):
    """Top-level names of absolute imports outside the standard library
    and numpy; relative imports are the package's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in ALLOWED_IMPORTS:
                yield f"line {node.lineno}: {name}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_the_package(path):
    foreign = list(_foreign_imports(ast.parse(path.read_text(),
                                              filename=str(path))))
    assert not foreign, f"{path.name} imports {foreign}"


PIPELINE = """
import json, sys
from pathlib import Path
from tiltrec.cli import main

out = Path(sys.argv[1])
cfg = out / "cfg.json"
cfg.write_text(json.dumps({
    "seed": 3,
    "phantom": {"R": 8.0, "seed": 11},
    "distribution": {"n_theta": 8},
    "acquisition": {"N": 60, "K": 2, "alpha_deg": 3.8, "L": 16, "sigma2": 0.5},
    "solver": {"admm_iters": 5, "em_iters": 3, "hybrid_admm_iters": 3,
               "hybrid_em_iters": 2, "n_xi": 24},
    "experiment": {"snrs_db": [3.0], "trials": 1, "methods": ["admm", "em"]},
}))
def run(*argv):
    assert main(["--config", str(cfg), *argv]) == 0, argv
sim = out / "sim"
run("--out", str(sim), "simulate")
for method in ("admm", "em"):
    run("--out", str(out / method), "--method", method, "reconstruct",
        str(sim / "batch.dat"))
    run("--out", str(out / ("ev_" + method)), "evaluate",
        str(sim / "truth.dat"), str(out / method / "estimate.dat"))
run("--out", str(out / "exp"), "experiment")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_commands_load_no_scipy(tmp_path):
    """simulate, reconstruct (admm and em), evaluate and experiment, in one
    fresh interpreter, import no scipy module."""
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PIPELINE, str(tmp_path)],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
