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
