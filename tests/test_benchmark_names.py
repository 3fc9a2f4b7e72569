"""The benchmark's tracer wraps library functions by module and name, and its
workloads import library names and read attributes of library modules; each
such name must still resolve, or the benchmark ops fail."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_traced_function_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.FUNCTIONS
    missing = [
        f"{module}.{attr}" for module, attr, _, _ in tracing.FUNCTIONS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing


def _dotted(node) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _workload_names(tree) -> set[tuple[str, str]]:
    """(module, name) for each ``from nisim... import name`` and each attribute
    read on a module bound by ``import nisim.x [as y]``."""
    names, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nisim":
            names.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "nisim":
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
        if dotted is None:
            continue
        # one name read on a bound module: y.attr, or nisim.x.attr
        for bound, module in modules.items():
            if dotted.startswith(bound + ".") and "." not in dotted[len(bound) + 1:]:
                names.add((module, dotted[len(bound) + 1:]))
    return names


def test_every_workload_name_resolves():
    seen, missing = set(), []
    for path in sorted((PERFBENCH / "workloads").glob("*.py")):
        for module, name in _workload_names(ast.parse(path.read_text())):
            seen.add(f"{module}.{name}")
            if not hasattr(importlib.import_module(module), name):
                missing.append(f"{path.name}: {module}.{name}")
    # one name of each kind: imported, read on an alias, read on a dotted import
    assert {"nisim.fourier.FourierPolynomial", "nisim.regularity.joint_high_influence_set",
            "nisim.cli.main"} <= seen
    assert not missing
