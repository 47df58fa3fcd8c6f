import ast
import importlib
import types
from pathlib import Path

import quiverflow

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_all_names_public_objects():
    assert len(set(quiverflow.__all__)) == len(quiverflow.__all__)
    for name in quiverflow.__all__:
        assert not isinstance(getattr(quiverflow, name), types.ModuleType), name


def _is_module(name):
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


def _benchmark_references(tree):
    """(module, attribute) pairs a benchmark file takes from quiverflow: names
    it imports, attributes it reads off a quiverflow module alias, and
    ("quiverflow.x", "name", ...) tuples such as the tracer's TRACED list."""
    aliases = {}  # local name -> quiverflow module name
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "quiverflow":
                    aliases[a.asname or "quiverflow"] = a.name if a.asname else "quiverflow"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "quiverflow":
            for a in node.names:
                sub = f"{node.module}.{a.name}"
                if _is_module(sub):
                    aliases[a.asname or a.name] = sub
                else:
                    refs.append((node.module, a.name))
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Attribute)
              and node.value.func.attr == "import_module" and node.value.args
              and isinstance(node.value.args[0], ast.Constant)
              and str(node.value.args[0].value).startswith("quiverflow")):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases[target.id] = node.value.args[0].value
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2 and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts[:2]):
            mod, attr = node.elts[0].value, node.elts[1].value
            if mod.split(".")[0] == "quiverflow" and attr.isidentifier():
                refs.append((mod, attr))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            refs.append((aliases[node.value.id], node.attr))
    return refs


def test_benchmark_references_exist():
    # the benchmark reaches into the package; a deleted or renamed helper
    # would otherwise only show up when the benchmark runs
    files = sorted(PERFBENCH.glob("*.py"))
    assert files
    refs = []
    for path in files:
        refs += [(path.name, mod, attr)
                 for mod, attr in _benchmark_references(ast.parse(path.read_text()))]
    assert ("spans.py", "quiverflow.flow", "flow") in refs
    assert ("run.py", "quiverflow.rep", "grad_energy") in refs
    assert ("workloads.py", "quiverflow.correspond", "hecke_check") in refs
    missing = [(f, mod, attr) for f, mod, attr in refs
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, missing
