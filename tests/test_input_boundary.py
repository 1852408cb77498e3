"""Every JSON input goes through the one boundary in `co2meter.errors`.

`errors.read_json` parses every JSON input file and `errors.json_number`,
`json_int` and `json_name` check its fields; the dataset reader parses its
lines one by one in `predictor.data.read_dataset_jsonl` and checks them with
the same helpers.  This reads the package sources with `ast` and runs none of
them, so a new loader that parses JSON or type-tests a bool on its own fails
here.  The same scan holds the predictor to one input boundary of its own:
only `training._as_table` and `training._split_tables` tell a sample set
from its `sample_table`.  No `except` clause names KeyError or TypeError:
a reader checks its keys and types with the helpers and catches ValueError.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "co2meter"
SOURCES = sorted(PACKAGE.rglob("*.py"))
# Where JSON text may be parsed: (module, function, in a loop)
PARSERS = {("errors.py", "read_json", False), ("predictor/data.py", "read_dataset_jsonl", True)}


def _module(path: Path) -> str:
    return path.relative_to(PACKAGE).as_posix()


def _calls(tree: ast.Module):
    """(enclosing function name, inside a loop, call) for each call."""
    stack = [(tree, None, False)]
    while stack:
        node, function, looping = stack.pop()
        if isinstance(node, ast.Call):
            yield function, looping, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function, looping = node.name, False
        looping = looping or isinstance(node, (ast.For, ast.While, ast.comprehension))
        stack.extend((child, function, looping) for child in ast.iter_child_nodes(node))


def _parses_json(call: ast.Call, json_names: set[str]) -> bool:
    """`json.load(s)(...)`, or a name imported from json."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id == "json" and func.attr in ("load", "loads")
    return isinstance(func, ast.Name) and func.id in json_names


def _isinstance_kinds(call: ast.Call) -> set[str]:
    """The type names `isinstance(x, T)` or `isinstance(x, (..., T, ...))`
    tests; none for any other call."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "isinstance"
            and len(call.args) == 2):
        return set()
    kinds = call.args[1]
    kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
    return {k.id for k in kinds if isinstance(k, ast.Name)}


def _scan(path: Path) -> tuple[set, list]:
    """(where the module parses JSON, the lines of its bool type tests)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    json_names = {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "json"
                  for alias in node.names}
    parsers, bool_tests = set(), []
    for function, looping, call in _calls(tree):
        if _parses_json(call, json_names):
            parsers.add((_module(path), function, looping))
        if "bool" in _isinstance_kinds(call):
            bool_tests.append(call.lineno)
    return parsers, bool_tests


@pytest.mark.parametrize("path", SOURCES, ids=[_module(p) for p in SOURCES])
def test_json_is_parsed_only_at_the_boundary(path):
    parsers, _ = _scan(path)
    assert parsers <= PARSERS, f"{_module(path)} parses JSON outside errors.read_json: {parsers}"


@pytest.mark.parametrize("path", SOURCES, ids=[_module(p) for p in SOURCES])
def test_bools_are_refused_only_at_the_boundary(path):
    _, lines = _scan(path)
    if _module(path) != "errors.py":
        assert not lines, f"{_module(path)} type-tests a bool itself, lines {lines}"


def test_the_boundary_is_scanned():
    """The scan sees the two parsers and the field checks it allows."""
    found = set().union(*(_scan(path)[0] for path in SOURCES))
    assert found == PARSERS
    assert _scan(PACKAGE / "errors.py")[1]


# The predictor's internals take one `training.sample_table`; a sample set is
# told from its table only where it is turned into one.
TABLE_TESTS = {("predictor/training.py", "_as_table"), ("predictor/training.py", "_split_tables")}


def _dict_tests(path: Path) -> set:
    """(module, enclosing function) of each `isinstance` test for a dict."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {(_module(path), function) for function, _, call in _calls(tree)
            if "dict" in _isinstance_kinds(call)}


def test_samples_or_table_is_decided_in_two_places():
    found = set().union(*(_dict_tests(p) for p in SOURCES if _module(p).startswith("predictor/")))
    assert found == TABLE_TESTS


# A reader checks its document with the `errors.json_*` helpers, which raise
# ValueError; catching KeyError or TypeError would also report a programming
# error inside a record's own checks as malformed input.
_UNCAUGHT = {"KeyError", "TypeError"}


def _caught_lookup_errors(root: Path) -> list[str]:
    """`<module>:<line>` of each `except` clause under root naming KeyError or TypeError."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if _UNCAUGHT & {k.id for k in kinds if isinstance(k, ast.Name)}:
                    found.append(f"{path.relative_to(root).as_posix()}:{node.lineno}")
    return found


def test_no_reader_catches_key_or_type_errors():
    assert _caught_lookup_errors(PACKAGE) == []


def test_the_except_scan_sees_a_small_package(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(
        "try:\n    pass\nexcept (KeyError, ValueError):\n    pass\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n")
    (tmp_path / "sub" / "b.py").write_text(
        "try:\n    pass\nexcept TypeError as exc:\n    pass\nexcept:\n    pass\n")
    assert _caught_lookup_errors(tmp_path) == ["a.py:3", "sub/b.py:3"]
