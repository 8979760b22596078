"""Every public name the package exports, every function the benchmark's
tracer wraps, every layer attribute its workloads and probes reach, and
every settings attribute it reads, resolves on the installed package;
and every public name the package defines has a reader outside the
unit tests.

perfbench/spans.py, workloads.py and probes.py are read with ast, not
imported, and never changed: the Tracer calls getattr on each (module,
attribute) of LAYER_FUNCTIONS, and the operations call `<layer>.<name>`
on the modules of LAYER_MODULES, so a renamed or deleted name would
break benchmark runs rather than the tests.
"""

import ast
import importlib
from pathlib import Path

import pytest

import zetalab
from zetalab import QuadratureSettings

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "zetalab"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
SPANS = PERFBENCH / "spans.py"
CALLERS = (PERFBENCH / "workloads.py", PERFBENCH / "probes.py")


def _constant(path: Path, name: str) -> ast.expr:
    """The value node of the module-level assignment to name in path."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        target = node.target if isinstance(node, ast.AnnAssign) else None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        if isinstance(target, ast.Name) and target.id == name:
            return node.value
    raise AssertionError(f"no {name} in {path}")


def _layer_functions() -> list[tuple[str, str]]:
    entries = _constant(SPANS, "LAYER_FUNCTIONS").elts
    return [(entry.elts[0].value, entry.elts[1].value) for entry in entries]


def _layer_attributes() -> list[tuple[str, str]]:
    """Each `<layer>.<name>` in the benchmark's operations, where <layer>
    is a name or attribute spelled like a module of LAYER_MODULES
    (`zl.zeta.zeta_grid_multi`, or `moments.MomentSpec` after
    `moments = self.zl.moments`)."""
    layers = {elt.value for elt in _constant(CALLERS[0], "LAYER_MODULES").elts}
    found = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                owner = node.value
                spelled = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
                if spelled in layers:
                    found.add((f"zetalab.{spelled}", node.attr))
    return sorted(found)


def _resolve(module: str, dotted: str):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("entry", _layer_functions(), ids=".".join)
def test_traced_function_resolves(entry):
    assert callable(_resolve(*entry))


@pytest.mark.parametrize("entry", _layer_attributes(), ids=".".join)
def test_benchmark_attribute_resolves(entry):
    _resolve(*entry)


def test_benchmark_reaches_the_layers():
    # a parser that matched nothing would make the test above vacuous
    assert ("zetalab.moments", "integrate_moment") in _layer_attributes()
    assert ("zetalab.quadrature", "QuadratureSettings") in _layer_attributes()


def test_thread_setting_constructs():
    # perfbench's threads operation and thread probe build this
    assert QuadratureSettings(threads=2).threads == 2


def _settings_reads() -> tuple[set, set]:
    """The attributes spans.py reads off a `settings` value (the
    integrate hook's QuadratureSettings), and the keywords workloads.py
    and probes.py pass to QuadratureSettings(...)."""
    reads = {
        node.attr
        for node in ast.walk(ast.parse(SPANS.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "settings"
    }
    keywords = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "QuadratureSettings":
                keywords |= {kw.arg for kw in node.keywords}
    return reads, keywords


def test_benchmark_settings_attributes_exist():
    # a settings knob cut must not break traced benchmark runs
    reads, keywords = _settings_reads()
    assert "points_per_panel" in reads and "threads" in keywords  # not vacuous
    settings = QuadratureSettings()
    assert isinstance(settings.points_per_panel, int)
    assert settings.threads == 1
    for name in reads | keywords:
        assert hasattr(settings, name)


def test_package_all_resolves():
    missing = [name for name in zetalab.__all__ if not hasattr(zetalab, name)]
    assert zetalab.__all__ and missing == []


def _public_definitions() -> list[str]:
    """module.name of each public module-level function or class, and
    module.Class.name of each public method, defined in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{path.stem}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return found


def _package_references() -> set[str]:
    """Each name the package reads outside __init__.py: a Name, the attr
    of an Attribute, or the name of an import alias."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
    return found


def _benchmark_names() -> set[str]:
    """The names perfbench reaches: each part of a LAYER_FUNCTIONS
    attribute, each layer attribute, each settings read and keyword."""
    found = {part for _, dotted in _layer_functions() for part in dotted.split(".")}
    found |= {name for _, name in _layer_attributes()}
    reads, keywords = _settings_reads()
    return found | reads | keywords


def _acceptance_imports() -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("zetalab")
        for alias in node.names
    }


def test_every_public_name_has_a_caller():
    # "no module without a caller", for names: a public name that only
    # unit tests and __all__ read is dead weight in the package
    readers = _package_references() | _benchmark_names() | _acceptance_imports()
    defined = _public_definitions()
    assert "zeta.zeta" in defined and "pairs.PairSet.to_csv" in defined  # not vacuous
    uncalled = [name for name in defined if name.rsplit(".", 1)[1] not in readers]
    assert uncalled == []
