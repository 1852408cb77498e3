"""Every library name the benchmark harnesses use still exists.

perfbench's probes import co2meter names inside functions that run only under
`--trace 1`, and `bench/` stays out of the default run, so a renamed or
deleted name would break them unseen.  This reads their sources with `ast`
and runs none of them.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("bench/*.py")])
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _from_import(module: str, name: str):
    """What `from module import name` binds: an attribute, else a submodule."""
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        return importlib.import_module(f"{module}.{name}")


def _own_nodes(scope: ast.AST) -> list[ast.AST]:
    """The nodes of a scope, without the bodies of the scopes nested in it."""
    nodes, stack = [], list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return nodes


def _self_attr(expr: ast.AST) -> str | None:
    """`name` when expr reads `self.name`."""
    if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"):
        return expr.attr
    return None


def _library_uses(tree: ast.Module) -> tuple[list[str], list[str]]:
    """(names that resolve, names that do not) among the file's co2meter
    imports and the attributes it reads off an imported co2meter module,
    each name looked up in the scope that reads it."""
    found, missing = [], []
    members = {}  # `self.pr = pr` makes `self.pr` the module wherever it is read

    def resolve(label, lookup):
        try:
            obj = lookup()
        except (ImportError, AttributeError):
            missing.append(label)
            return None
        found.append(label)
        return obj

    def module_of(expr, modules):
        if isinstance(expr, ast.Name):
            return modules.get(expr.id)
        if _self_attr(expr) is not None:
            return members.get(_self_attr(expr))
        if isinstance(expr, ast.Attribute):
            base = module_of(expr.value, modules)
            obj = getattr(base, expr.attr, None) if base is not None else None
            return obj if isinstance(obj, ModuleType) else None
        return None

    def scan(scope, inherited):
        own = _own_nodes(scope)
        local = {n.id for n in own if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        if not isinstance(scope, (ast.Module, ast.ClassDef)):
            local |= {a.arg for a in ast.walk(scope.args) if isinstance(a, ast.arg)}
        modules = {k: v for k, v in inherited.items() if k not in local}
        for node in own:  # `pr, tr = self.pr, ...`
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                pairs = (zip(target.elts, value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                         else [(target, value)])
                for name, source in pairs:
                    if isinstance(name, ast.Name) and _self_attr(source) in members:
                        modules[name.id] = members[_self_attr(source)]
        for node in own:
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "co2meter":
                for alias in node.names:
                    obj = resolve(f"{node.module}.{alias.name}",
                                  lambda: _from_import(node.module, alias.name))
                    if isinstance(obj, ModuleType):
                        modules[alias.asname or alias.name] = obj
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "co2meter":
                        obj = resolve(alias.name, lambda: importlib.import_module(alias.name))
                        if obj is not None and alias.asname:
                            modules[alias.asname] = obj
                        elif obj is not None:
                            modules["co2meter"] = importlib.import_module("co2meter")
        for node in own:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                for target in node.targets:
                    if _self_attr(target) is not None:
                        members[_self_attr(target)] = modules[node.value.id]
            elif isinstance(node, ast.Attribute):
                module = module_of(node.value, modules)
                if module is not None:
                    resolve(f"{module.__name__}.{node.attr}", lambda: getattr(module, node.attr))
            elif isinstance(node, _SCOPES):
                scan(node, modules)

    scan(tree, {})  # finds `members` for the scan that counts
    found.clear()
    missing.clear()
    scan(tree, {})
    return found, missing


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_benchmark_sources_use_only_existing_library_names(path):
    found, missing = _library_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not missing, f"{path.name} uses names co2meter no longer has: {missing}"


def test_benchmark_sources_are_scanned():
    """The scan sees the probes' imports and the reads off `pr` and `self.pr`."""
    found, _ = _library_uses(ast.parse((ROOT / "perfbench" / "layers.py").read_text()))
    assert "co2meter.predictor.request_energy" in found
    found, _ = _library_uses(ast.parse((ROOT / "perfbench" / "workloads.py").read_text()))
    assert {"co2meter.predictor.train", "co2meter.predictor.params_to_json"} <= set(found)
