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

Every defaulted parameter of a `src/co2meter` function is set, by keyword or
by position, by some call in the package or the same root files: a default
no caller changes is a constant.  Calls match by name too, `Cls(...)` sets
`__init__` and a class statement's keywords `__init_subclass__`.

The same scan keeps each module's private names its own: no `src/co2meter`
module imports a `_`-prefixed name from another module of the package.  And
it keeps the name-or-path rule in `assets`: no other module defines
`_looks_like_path`, and no function takes a `*_resolver` callback.
"""

import ast
from pathlib import Path
from typing import NamedTuple

import pytest
from test_bench_imports import SOURCES

ROOT = Path(__file__).resolve().parents[1]
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Scan(NamedTuple):
    """A package's modules and the root files, each parsed once."""
    package: Path
    modules: dict[Path, ast.Module]
    roots: list[ast.Module]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def scan(package: Path, root_files) -> Scan:
    return Scan(package, {path: _parse(path) for path in sorted(package.rglob("*.py"))},
                [_parse(path) for path in root_files])


@pytest.fixture(scope="module")
def library() -> Scan:
    """`src/co2meter`, with the acceptance gate and the harness sources as roots."""
    return scan(ROOT / "src" / "co2meter", [ROOT / "tests" / "test_acceptance.py", *SOURCES])


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


def _definitions(path: Path, tree: ast.Module, package: Path) -> list[Definition]:
    module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
    where = lambda node: f"{path.relative_to(package.parents[1])}:{node.lineno}"  # noqa: E731
    defs = []
    for node in tree.body:
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


def unreached(scanned: Scan) -> list[str]:
    """`path:line: label` of each definition of the package that neither
    `cli.main`, a `cli._cmd_*` function nor a root file reaches."""
    defs = [d for path, tree in scanned.modules.items()
            for d in _definitions(path, tree, scanned.package)]
    cli = f"{scanned.package.name}.cli."
    roots = [d for d in defs if _is_dunder(d.name)
             or d.label == cli + "main" or d.label.startswith(cli + "_cmd_")]
    named = _names(scanned.roots)
    reached, todo = set(), roots
    while todo:
        for d in todo:
            reached.add(d.label)
            named |= _names(d.body)
        todo = [d for d in defs if d.label not in reached and d.name in named]
    return [f"{d.where}: {d.label}" for d in defs if d.label not in reached]


def test_every_library_definition_is_reached(library):
    found = unreached(library)
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
    assert unreached(scan(package, [gate])) == [
        "src/pkg/cli.py:8: pkg.cli.unused_cli",
        "src/pkg/lib.py:10: pkg.lib.Box.unnamed",
        "src/pkg/lib.py:14: pkg.lib.reexported",
        "src/pkg/lib.py:16: pkg.lib.only_tests",
        "src/pkg/lib.py:20: pkg.lib.dead_end",
        "src/pkg/lib.py:22: pkg.lib.B",
    ]


class _CallShape(NamedTuple):
    positional: int  # arguments before any `*args`
    keywords: frozenset[str]
    unpacks: bool  # a `*args` or `**kwargs`, which may set anything


def _call_shapes(trees, classes: set[str]) -> dict[str, list[_CallShape]]:
    """The shape of each call in the trees, by the name it calls; a call of a
    class is one of its `__init__`, a class statement's keywords one of
    `__init_subclass__`."""
    shapes = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                name, args, keywords = "__init_subclass__", [], node.keywords
            elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                name = "__init__" if name in classes else name
                args, keywords = node.args, node.keywords
            else:
                continue
            plain = [a for a in args if not isinstance(a, ast.Starred)]
            shapes.setdefault(name, []).append(_CallShape(
                len(plain), frozenset(k.arg for k in keywords if k.arg),
                len(plain) < len(args) or any(k.arg is None for k in keywords)))
    return shapes


def _defaulted(function: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None]]:
    """(name, position a call gives it, or None when it is keyword-only) of
    each defaulted parameter; a bound method's calls do not pass `self`."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    return [(arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first] + [
        (arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None]


def _sets(call: _CallShape, name: str, position: int | None) -> bool:
    return (call.unpacks or name in call.keywords
            or (position is not None and call.positional > position))


def idle_parameters(scanned: Scan) -> list[str]:
    """`path:line: label(name=...)` of each defaulted parameter of a function
    of the package that no call in the package or a root file sets."""
    package, trees = scanned.package, scanned.modules
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    shapes = _call_shapes([*trees.values(), *scanned.roots], classes)
    found = []

    def visit(body, label: str, in_class: bool, where: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{label}.{node.name}", True, where)
            elif isinstance(node, _FUNCTIONS):
                bound = in_class and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)
                found.extend(
                    f"{where}:{node.lineno}: {label}.{node.name}({name}=...)"
                    for name, position in _defaulted(node, bound)
                    if not any(_sets(call, name, position) for call in shapes.get(node.name, [])))
                visit(node.body, f"{label}.{node.name}", False, where)

    for path, tree in trees.items():
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        visit(tree.body, module, False, str(path.relative_to(package.parents[1])))
    return found


def test_every_defaulted_parameter_is_set_by_some_call(library):
    found = idle_parameters(library)
    assert not found, "no call sets:\n" + "\n".join(found)


def test_idle_parameters_on_a_small_package(tmp_path):
    """A default counts as set by keyword, by position (past a bound
    method's self), or by any `*args` / `**kwargs` call of its name, in the
    package or a root; a class call sets `__init__`, a class statement's
    keywords `__init_subclass__`; a call in an unscanned file sets nothing."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "lib.py").write_text(
        "def by_keyword(a, b=1, *, c=2, d=3):\n    pass\n"
        "def by_position(a, b=1, c=2):\n    pass\n"
        "def by_unpacking(a=1, *, b=2):\n    pass\n"
        "def only_elsewhere(a=1):\n    pass\n"
        "class Base:\n"
        "    def __init__(self, size=1, label=''):\n        pass\n"
        "    def __init_subclass__(cls, frozen=True, slots=False):\n        pass\n"
        "    def method(self, a, b=1):\n        pass\n"
        "    @staticmethod\n    def helper(a=1):\n        pass\n"
        "class Frozen(Base, frozen=False):\n    pass\n"
        "def use():\n"
        "    by_keyword(0, c=5)\n    by_position(0, 1)\n"
        "    Base(2).method(0, 1)\n    Base.helper()\n")
    gate = tmp_path / "gate.py"
    gate.write_text("import pkg\nargs = ()\npkg.lib.by_unpacking(*args)\n")
    (tmp_path / "elsewhere.py").write_text("import pkg\npkg.lib.only_elsewhere(2)\n")
    assert idle_parameters(scan(package, [gate])) == [
        "src/pkg/lib.py:1: pkg.lib.by_keyword(b=...)",
        "src/pkg/lib.py:1: pkg.lib.by_keyword(d=...)",
        "src/pkg/lib.py:3: pkg.lib.by_position(c=...)",
        "src/pkg/lib.py:7: pkg.lib.only_elsewhere(a=...)",
        "src/pkg/lib.py:10: pkg.lib.Base.__init__(label=...)",
        "src/pkg/lib.py:12: pkg.lib.Base.__init_subclass__(slots=...)",
        "src/pkg/lib.py:17: pkg.lib.Base.helper(a=...)",
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
