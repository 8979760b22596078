"""Every public name the package exports, and every function the
benchmark's tracer wraps, resolves on the installed package.

perfbench/spans.py is read with ast, not imported, and never changed:
its Tracer calls getattr on each (module, attribute) of LAYER_FUNCTIONS,
so a renamed or deleted function would break every traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

import zetalab

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layer_functions() -> list[tuple[str, str]]:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        target = node.target if isinstance(node, ast.AnnAssign) else None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        if isinstance(target, ast.Name) and target.id == "LAYER_FUNCTIONS":
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"no LAYER_FUNCTIONS in {SPANS}")


def _resolve(module: str, dotted: str):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("entry", _layer_functions(), ids=".".join)
def test_traced_function_resolves(entry):
    assert callable(_resolve(*entry))


def test_package_all_resolves():
    missing = [name for name in zetalab.__all__ if not hasattr(zetalab, name)]
    assert zetalab.__all__ and missing == []
