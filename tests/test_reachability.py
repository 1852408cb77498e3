"""Every library definition is reached from the CLI, the acceptance gate or a
benchmark harness.

The definitions are the top-level functions, classes and assignments of each
`src/co2meter` module, plus the non-dunder methods and properties of each
class.  A definition is reached when a reached body names it, as a bare name
or as an attribute; the roots are `cli.main` with the `_cmd_*` functions,
`tests/test_acceptance.py`, and the harness sources `test_bench_imports`
scans.  An import inside `src/` names nothing, so a re-export is no use.
Dunder definitions are reached by Python itself.  The check is by name, like
`test_bench_imports`: it reads sources with `ast` and runs none of them.

The same scan keeps each module's private names its own: no `src/co2meter`
module imports a `_`-prefixed name from another module of the package.  And
it keeps the name-or-path rule in `assets`: no other module defines
`_looks_like_path`, and no function takes a `*_resolver` callback.
"""

import ast
from pathlib import Path
from typing import NamedTuple

from test_bench_imports import SOURCES

ROOT = Path(__file__).resolve().parents[1]
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Definition(NamedTuple):
    label: str  # module.name, or module.Class.method
    name: str
    where: str  # path:line
    body: list[ast.AST]  # the nodes whose names a reached definition reaches


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names(nodes) -> set[str]:
    """Every name the nodes read, bare or as an attribute; an import or an
    assignment reads none."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add(node.attr)
    return found


def _definitions(path: Path, package: Path) -> list[Definition]:
    module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
    where = lambda node: f"{path.relative_to(package.parents[1])}:{node.lineno}"  # noqa: E731
    defs = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            body = [node]
            if isinstance(node, ast.ClassDef):  # a method is a definition of its own
                methods = [n for n in node.body
                           if isinstance(n, _FUNCTIONS) and not _is_dunder(n.name)]
                body = [n for n in node.body if n not in methods]
                body += [*node.bases, *node.keywords, *node.decorator_list]
                defs += [Definition(f"{module}.{node.name}.{m.name}", m.name, where(m), [m])
                         for m in methods]
            defs.append(Definition(f"{module}.{node.name}", node.name, where(node), body))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in (n.id for n in ast.walk(target) if isinstance(n, ast.Name)):
                    defs.append(Definition(f"{module}.{name}", name, where(node), [node]))
    return defs


def unreached(package: Path, root_files) -> list[str]:
    """`path:line: label` of each definition under package that neither
    `cli.main`, a `cli._cmd_*` function nor a root file reaches."""
    defs = [d for path in sorted(package.rglob("*.py")) for d in _definitions(path, package)]
    cli = f"{package.name}.cli."
    roots = [d for d in defs if _is_dunder(d.name)
             or d.label == cli + "main" or d.label.startswith(cli + "_cmd_")]
    named = _names(ast.parse(path.read_text(), filename=str(path)) for path in root_files)
    reached, todo = set(), roots
    while todo:
        for d in todo:
            reached.add(d.label)
            named |= _names(d.body)
        todo = [d for d in defs if d.label not in reached and d.name in named]
    return [f"{d.where}: {d.label}" for d in defs if d.label not in reached]


def test_every_library_definition_is_reached():
    found = unreached(ROOT / "src" / "co2meter", [ROOT / "tests" / "test_acceptance.py", *SOURCES])
    assert not found, "no root reaches:\n" + "\n".join(found)


def test_reachability_on_a_small_package(tmp_path):
    """Each root reaches what it names and what that names in turn; a
    re-export, a name only an unreached body uses, and an unnamed method
    reach nothing; dunders need no caller."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .lib import reexported\n__all__ = ['lib']\n")
    (package / "cli.py").write_text(
        "from .lib import Box, helper\n"
        "def main():\n    return _cmd_run(None)\n"
        "def _cmd_run(args):\n    return helper() + Box().size\n"
        "def _cmd_other(args):\n    pass\n"
        "def unused_cli():\n    pass\n")
    (package / "lib.py").write_text(
        "LIMIT = 3\n"
        "def helper():\n    return LIMIT\n"
        "class Box:\n"
        "    def __init__(self):\n        self.n = _init_size()\n"
        "    @property\n    def size(self):\n        return self.n\n"
        "    def unnamed(self):\n        return dead_end()\n"
        "def _init_size():\n    return 1\n"
        "def reexported():\n    pass\n"
        "def only_tests():\n    pass\n"
        "def gate_only():\n    pass\n"
        "def dead_end():\n    pass\n"
        "A, B = 1, 2\n")
    gate = tmp_path / "gate.py"
    gate.write_text("import pkg\npkg.lib.gate_only()\nprint(pkg.lib.A)\n")
    assert unreached(package, [gate]) == [
        "src/pkg/cli.py:8: pkg.cli.unused_cli",
        "src/pkg/lib.py:10: pkg.lib.Box.unnamed",
        "src/pkg/lib.py:14: pkg.lib.reexported",
        "src/pkg/lib.py:16: pkg.lib.only_tests",
        "src/pkg/lib.py:20: pkg.lib.dead_end",
        "src/pkg/lib.py:22: pkg.lib.B",
    ]


def private_imports(package: Path) -> list[str]:
    """`path:line: module.name` of each `_`-prefixed name that a module under
    package imports from a module of the package, at any depth."""
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == package.name):
                source = "." * node.level + (node.module or "")
                found += [f"{path.relative_to(package.parents[1])}:{node.lineno}: "
                          f"{source}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    found = private_imports(ROOT / "src" / "co2meter")
    assert not found, "private names imported across modules:\n" + "\n".join(found)


def test_private_imports_on_a_small_package(tmp_path):
    """Relative and absolute imports of the package count, in a function
    too; public names and other packages' private names do not."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "lib.py").write_text("def _hidden():\n    pass\ndef shown():\n    pass\n")
    (package / "use.py").write_text(
        "from __future__ import annotations\n"
        "from os.path import _get_sep\n"
        "from .lib import _hidden, shown\n"
        "def late():\n    from pkg.lib import _hidden\n")
    assert private_imports(package) == [
        "src/pkg/use.py:3: .lib._hidden",
        "src/pkg/use.py:5: pkg.lib._hidden",
    ]


def resolution_outside_assets(package: Path) -> list[str]:
    """`path:line: what` of each definition of `_looks_like_path`, the
    name-or-path rule, outside the package's `assets` module, and of each
    function parameter named `*_resolver`, a callback that carries the rule."""
    found = []
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package.parents[1])
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, _FUNCTIONS):
                continue
            if node.name == "_looks_like_path" and path != package / "assets.py":
                found.append(f"{where}:{node.lineno}: {node.name}")
            args = node.args
            found += [f"{where}:{node.lineno}: {node.name}({arg.arg}=...)"
                      for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                      if arg.arg.endswith("_resolver")]
    return found


def test_only_assets_decides_between_a_name_and_a_path():
    found = resolution_outside_assets(ROOT / "src" / "co2meter")
    assert not found, "name-or-path resolution outside assets:\n" + "\n".join(found)


def test_resolution_scan_on_a_small_package(tmp_path):
    """The rule counts outside `assets` at any depth, a `*_resolver`
    parameter of any kind anywhere; the rule in `assets` does not."""
    package = tmp_path / "src" / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "assets.py").write_text("def _looks_like_path(v):\n    return '/' in v\n")
    (package / "sub" / "assets.py").write_text("def _looks_like_path(v):\n    pass\n")
    (package / "cli.py").write_text(
        "def _looks_like_path(v):\n    pass\n"
        "def load(doc, config_resolver, *, device_resolver=None):\n    pass\n"
        "class Loader:\n    def read(self, resolver, path_resolver):\n        pass\n")
    assert resolution_outside_assets(package) == [
        "src/pkg/cli.py:1: _looks_like_path",
        "src/pkg/cli.py:3: load(config_resolver=...)",
        "src/pkg/cli.py:3: load(device_resolver=...)",
        "src/pkg/cli.py:6: read(path_resolver=...)",
        "src/pkg/sub/assets.py:1: _looks_like_path",
    ]
