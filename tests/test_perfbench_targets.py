"""The benchmark's span tracer wraps package functions by name; every name
it lists must resolve on the package, or a traced run fails."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves():
    sys.path.insert(0, str(PERFBENCH))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))
    missing = [f"{module}.{attr}" for module, attr, _, _ in spans.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, f"perfbench traces names the package lacks: {missing}"
