"""The `errors.Record` base of every value class, held to dataclass semantics.

Each record class under `src/co2meter` is built from a valid instance whose
fields are redrawn at random (a draw the constructor refuses keeps the old
value).  Equality, hash and repr are compared with the field tuple and with
a `dataclasses.make_dataclass` twin of the same fields; a bad argument list
must raise the twin's TypeError word for word.  An `ast` scan keeps the
package free of `dataclasses` and of generated code.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from co2meter import accounting as acc
from co2meter import assets
from co2meter import device_models as dm
from co2meter import embodied as emb
from co2meter import workload as wl
from co2meter.errors import Record, UserInputError, replace
from co2meter.predictor import baselines, gnn, oracle, training

SRC = Path(__file__).resolve().parents[1] / "src" / "co2meter"


def _examples():
    """One valid instance of each record class, by class name."""
    cfg, dev = assets.load_llm_config("qwen15-05b"), assets.load_device("rk3588")
    req = wl.Request(10, 5)
    graph = wl.build_layer_graph(cfg, req, "prefill")
    bom = assets.load_bom("rk3588")
    pipeline = assets.load_demo_pipeline()
    models = assets.demo_peripheral_models()
    samples = dm.load_samples_csv(assets.measurement_csv("speaker"))
    ci = assets.load_carbon_intensities()["global"]
    sample = oracle.make_sample(cfg, req, dev, np.random.default_rng(0), 0.05)
    params = gnn.init_params(0)
    table = training.sample_table([sample, sample])
    found = [
        cfg, dev, req, graph, graph.nodes[1], wl.global_features(cfg, req, "total"),
        bom, bom.units[0], emb.soc_embodied(bom, ["die:npu"]),
        emb.ScaleUnit("npu", 2.0), emb.SetDram(1.0), emb.SetPcbArea(50.0),
        pipeline, pipeline.input, pipeline.conversion, pipeline.llm, pipeline.output,
        acc.CameraInput(2.0, 3.0), acc.SpeakerOutput(1.0, 60.0), ci, acc.UsageProfile(100.0),
        acc.app_energy(pipeline, models, lambda stage: 1.0),
        acc.total_footprint(1.0, acc.UsageProfile(100.0), 2.0, ci),
        samples[0], models["net"], models["video"], models["speaker"], models["display"],
        dm.fit_speaker(samples),
        oracle.featurize(cfg, req, dev), sample,
        training.TrainConfig(), training.Metrics(1.0, 2.0, 3), training._TOWERS["total"],
        training._prepare(table, params.norms, "prefill"),
        params, params.prefill, params.norms, gnn.Workspace.allocate(params.prefill, 2, 12),
        baselines.fit_ridge_globals(table),
        baselines.SinglePhaseParams(params.prefill, params.norms),
    ]
    return {type(x).__name__: x for x in found}


def _record_classes():
    """Every Record subclass the package defines, by name, after importing
    every module (the `ast` test below checks that none is left out)."""
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        importlib.import_module(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    found, todo = {}, [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("co2meter."):
                found[cls.__name__] = cls
                todo.append(cls)
    return found


RECORDS = _record_classes()
EXAMPLES = _examples()


def test_every_record_class_is_found_and_has_an_example():
    """The classes whose bases name Record or another record class, read from
    the source, are exactly the subclasses found at run time."""
    named = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name != "Record":
                bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
                if bases & ({"Record"} | named | set(RECORDS)):
                    named.add(node.name)
    assert named == set(RECORDS)
    assert sorted(EXAMPLES) == sorted(RECORDS)


def test_no_dataclasses_and_no_generated_code_in_the_package():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.relative_to(SRC.parent)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                found += [where for a in node.names if a.name.split(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                found.append(where)
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name) and func.value.id == "builtins" else "")
                if name in ("exec", "eval", "compile"):
                    found.append(where)
    assert not found


# ---------------------------------------------------------------------------
# Semantics over random valid field values


def _candidates(value):
    """A strategy for another value of a field whose current value is `value`."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str, type(None))):
        return st.just(value)
    if isinstance(value, int):
        return st.integers(-3, 2**70)
    if isinstance(value, str):
        return st.one_of(st.text(max_size=6), st.sampled_from(["ocr", "prefill", "total", "npu"]))
    return st.one_of(st.none(), st.floats(), st.floats(0.0, 1e3))


def _draw_record(draw, cls):
    """cls's example with each field redrawn, keeping the old value where the
    constructor refuses a draw; also returns the refused (field, value) pairs."""
    kwargs = {f: getattr(EXAMPLES[cls.__name__], f) for f in cls._fields}
    refused = []
    for field in cls._fields:
        value = draw(_candidates(kwargs[field]))
        if _raised(lambda: cls(**{**kwargs, field: value})):
            refused.append((field, value))
        else:
            kwargs[field] = value
    return cls(**kwargs), kwargs, refused


def _raised(fn):
    """The (type, text) of the ValueError or TypeError fn raises, else None;
    a TypeError is an unorderable draw, such as None for a float."""
    try:
        fn()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return None


def _outcome(fn):
    """fn's result, or the type of what it raised."""
    try:
        return fn()
    except Exception as exc:  # the comparison itself is under test
        return type(exc)


def _values(record):
    return tuple(getattr(record, f) for f in type(record)._fields)


def _assert_eq_follows_fields(x, y):
    """x == y and x != y behave as the field tuples' comparison, raising alike
    (numpy fields make an element-wise comparison ambiguous)."""
    assert _outcome(lambda: x == y) == _outcome(lambda: _values(x) == _values(y))
    assert _outcome(lambda: x != y) == _outcome(lambda: _values(x) != _values(y))


def _twin(cls):
    """A dataclass with cls's name, fields and defaults, and no checks."""
    spec = [(f, object, dataclasses.field(default=cls._defaults[f])) if f in cls._defaults
            else (f, object) for f in cls._fields]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


@pytest.mark.parametrize("name", sorted(RECORDS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_record_semantics_follow_the_field_tuple(name, data):
    cls = RECORDS[name]
    a, kwargs, refused = _draw_record(data.draw, cls)
    b = _draw_record(data.draw, cls)[0]
    values = _values(a)
    # equality and hash follow the class and the field tuple
    for other in (b, cls(**kwargs), replace(a)):
        _assert_eq_follows_fields(a, other)
    assert a != values and values != a
    lookalike = type(name, (Record,), {"__annotations__": {f: "object" for f in cls._fields}})
    assert a != lookalike(*values) and lookalike(*values) != a
    frozen = cls.__setattr__ is Record.__setattr__
    if frozen:
        assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(values))
    else:
        assert cls.__hash__ is None and cls.__setattr__ is object.__setattr__
    # assigning or deleting a field of a frozen record raises AttributeError
    for field, value in zip(cls._fields, values) if frozen else ():
        with pytest.raises(AttributeError, match=f"^cannot assign to field {field!r}$"):
            setattr(a, field, 1.0)
        with pytest.raises(AttributeError, match=f"^cannot delete field {field!r}$"):
            delattr(a, field)
        assert getattr(a, field) is value
    # replace rebuilds through __init__, so its checks run again
    for field, value in refused:
        want = _raised(lambda: cls(**{**kwargs, field: value}))
        assert _raised(lambda: replace(a, **{field: value})) == want
    # repr and the argument errors read like the dataclass twin's
    twin = _twin(cls)
    assert repr(a) == repr(twin(*values))
    if cls.__init__ is not Record.__init__:  # LayerGraph has its own signature
        return
    fields = list(cls._fields)
    required = [f for f in fields if f not in cls._defaults]
    dropped = data.draw(st.lists(st.sampled_from(required), unique=True)) if required else []
    k = data.draw(st.integers(1, len(fields)))
    calls = [
        ((), {f: v for f, v in kwargs.items() if f not in dropped}),  # missing
        ((), {**kwargs, data.draw(st.text(min_size=1).filter(lambda s: s not in fields)): 0}),
        (values[:k], {fields[data.draw(st.integers(0, k - 1))]: 0}),  # given twice
        ((*values, 0), {}),  # one positional too many
    ]
    for args, kw in calls:
        try:
            twin(*args, **kw)
        except TypeError as want:
            with pytest.raises(TypeError) as got:
                cls(*args, **kw)
            assert str(got.value) == str(want)


def test_missing_config_fields_are_named_like_a_dataclass():
    doc = {"name": "m", "num_layers": 2, "head_dim": 4, "ffn_dim": 8, "vocab_size": 10}
    with pytest.raises(UserInputError) as exc:
        wl.config_from_json(doc)
    assert str(exc.value) == ("malformed llm config: LlmConfig.__init__() missing 2 required "
                              "positional arguments: 'hidden_dim' and 'num_heads'")
