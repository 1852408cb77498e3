"""The `errors.Record` base of every value class, held to dataclass semantics.

Each record class under `src/co2meter` is built from a valid instance whose
fields are redrawn at random (a draw the constructor refuses keeps the old
value).  Equality, hash and repr are compared with the field tuple and with
a `dataclasses.make_dataclass` twin of the same fields; an argument list
the twin refuses must raise a TypeError naming the class.  An `ast` scan keeps the
package free of `dataclasses` and of generated code.

A field annotated `Positive`, `NonNegative` or `Finite` refuses NaN, the
infinities and any number outside its range, naming the class and field,
and accepts the range's edge; every other float field is listed in
`UNRANGED`.  The functions that check a number argument refuse the same
values, and an `ast` scan requires `from __future__ import annotations`
wherever a record class is defined, since the aliases work only as text.
"""

import ast
import dataclasses
import importlib
import math
import re
import sys
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
from co2meter.errors import NoBreakEvenError, Record, UserInputError, replace
from co2meter.predictor import data, gnn, oracle, split_indices, training

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
        data.featurize(cfg, req, dev), sample,
        training.TrainConfig(), training.Metrics(1.0, 2.0, 3), training._TOWERS["total"],
        training._prepare(table, params.norms, "prefill"),
        params, params.prefill, params.norms, gnn.Workspace.allocate(params.prefill, 2),
        training.fit_ridge_globals(table),
        training.SinglePhaseParams(params.prefill, params.norms),
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
    # repr reads like the dataclass twin's, and argument lists the twin
    # refuses raise a plain TypeError naming the class
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
        except TypeError:
            with pytest.raises(TypeError, match=f"^{re.escape(cls.__qualname__)}\\("):
                cls(*args, **kw)


def test_missing_config_fields_are_all_named():
    doc = {"name": "m", "num_layers": 2, "head_dim": 4, "ffn_dim": 8, "vocab_size": 10}
    with pytest.raises(UserInputError) as exc:
        wl.config_from_json(doc)
    assert str(exc.value) == "malformed llm config: config is missing 'hidden_dim', 'num_heads'"


# ---------------------------------------------------------------------------
# Range aliases

# Float fields without a range alias: bounds an alias cannot state, checked by
# hand, and the results of a computation.
UNRANGED = {
    ("DieUnit", "area_fraction"), ("TrainConfig", "train_frac"), ("TrainConfig", "val_frac"),
    ("EmbodiedReport", "total"), ("EmbodiedReport", "llm_fraction"), ("FitReport", "mae"),
    ("FitReport", "max_abs_err"), ("FootprintReport", "embodied_kg"),
    ("FootprintReport", "operational_kg"), ("FootprintReport", "total_kg"),
    ("Metrics", "mape"), ("Metrics", "eb10"), ("PipelineBreakdown", "total_j"),
}
ALIASES = ("Positive", "NonNegative", "Finite")
TINY, HUGE = math.ulp(0.0), sys.float_info.max
# Per alias: values just outside the range, and its edges, which are inside.
OUTSIDE = {"Positive": (0.0, -0.0, -TINY), "NonNegative": (-TINY, -HUGE), "Finite": ()}
EDGES = {"Positive": (TINY, HUGE), "NonNegative": (0.0, -0.0, HUGE), "Finite": (-HUGE, HUGE)}
WORDS = {"Positive": "finite and positive", "NonNegative": "finite and >= 0", "Finite": "finite"}


def _in_range(value, alias):
    if alias == "Finite":
        return math.isfinite(value)
    return (0.0 < value if alias == "Positive" else 0.0 <= value) and value < math.inf


def _annotation(cls, field):
    """The text of field's annotation in the nearest class that declares it."""
    return next(str(k.__annotations__[field]) for k in cls.__mro__
                if field in k.__dict__.get("__annotations__", {}))


def _ranged_fields():
    """(class, field) of every field that has a range alias or whose example
    holds a float, less `UNRANGED`."""
    return sorted((name, f) for name, cls in RECORDS.items() for f in cls._fields
                  if _annotation(cls, f) in ALIASES
                  or type(getattr(EXAMPLES[name], f)) is float and (name, f) not in UNRANGED)


def _range_error(name, field, value):
    """The text of the range error `name`'s constructor raises for field=value,
    else None (also when another check refuses the record)."""
    cls = RECORDS[name]
    try:
        cls(**{**{f: getattr(EXAMPLES[name], f) for f in cls._fields}, field: value})
    except ValueError as exc:
        if str(exc).startswith(f"{name}.{field} must be finite"):
            return str(exc)
    return None


def test_unranged_fields_have_no_alias_and_still_exist():
    for name, field in UNRANGED:
        assert field in RECORDS[name]._fields
        assert _annotation(RECORDS[name], field) not in ALIASES


@pytest.mark.parametrize("name, field", _ranged_fields())
@settings(max_examples=25, deadline=None)
@given(value=st.floats())
def test_range_alias_refuses_nan_infinities_and_numbers_outside(name, field, value):
    for bad in (math.nan, math.inf, -math.inf):
        assert _range_error(name, field, bad) is not None
    alias = _annotation(RECORDS[name], field)
    assert alias in ALIASES
    for bad in (math.nan, math.inf, -math.inf, *OUTSIDE[alias]):
        assert _range_error(name, field, bad) == f"{name}.{field} must be {WORDS[alias]}, got {bad}"
    for edge in EDGES[alias]:
        assert _range_error(name, field, edge) is None
    assert (_range_error(name, field, value) is None) == _in_range(value, alias)


def _ci():
    return assets.load_carbon_intensities()["global"]


# (call with one argument left open, its name, its alias)
ARGUMENT_CHECKS = {
    "operational_carbon": (lambda v: acc.operational_carbon(v, _ci()), "energy_j", "NonNegative"),
    "total_footprint.embodied": (
        lambda v: acc.total_footprint(v, acc.UsageProfile(1.0), 1.0, _ci()),
        "embodied_kg", "NonNegative"),
    "total_footprint.energy": (
        lambda v: acc.total_footprint(1.0, acc.UsageProfile(1.0), v, _ci()),
        "energy_per_request_j", "NonNegative"),
    "breakeven.embodied": (lambda v: acc.breakeven_requests(v, 1.0, _ci()),
                           "delta_embodied_kg", "Positive"),
    "breakeven.lifespan": (lambda v: acc.breakeven_requests(1.0, 1.0, _ci(), v),
                           "lifespan_years", "Positive"),
    "breakeven.energy": (lambda v: acc.breakeven_requests(1.0, v, _ci()),
                         "delta_energy_per_request_j", "Finite"),
    "background_energy.power": (lambda v: dm.background_energy(v, 1.0),
                                "idle_power_w", "NonNegative"),
    "background_energy.duration": (lambda v: dm.background_energy(1.0, v),
                                   "duration_s", "NonNegative"),
    "unit_embodied.area": (lambda v: emb.unit_embodied(v, 1.0), "area_cm2", "NonNegative"),
    "unit_embodied.cpa": (lambda v: emb.unit_embodied(1.0, v), "cpa_kg_per_cm2", "NonNegative"),
    "LinearRateModel.energy.duration": (lambda v: dm.LinearRateModel(1.0, 1.0).energy(v, 1.0),
                                        "duration_s", "NonNegative"),
    "LinearRateModel.energy.units": (lambda v: dm.LinearRateModel(1.0, 1.0).energy(1.0, v),
                                     "units", "NonNegative"),
    "VideoPowerModel.power": (lambda v: dm.VideoPowerModel(1.0, 1.0).power(v),
                              "pixels", "NonNegative"),
    "gen_oracle_dataset": (lambda v: oracle.gen_oracle_dataset([], [], 0, noise_sigma=v),
                           "noise_sigma", "NonNegative"),
    "split_indices.train": (lambda v: split_indices(10, v, 0.0, 0), "train_frac", "Positive"),
    "split_indices.val": (lambda v: split_indices(10, 0.8, v, 0), "val_frac", "NonNegative"),
}


@pytest.mark.parametrize("case", sorted(ARGUMENT_CHECKS))
def test_number_arguments_refuse_nan_infinities_and_numbers_outside(case):
    call, arg, alias = ARGUMENT_CHECKS[case]
    for bad in (math.nan, math.inf, -math.inf, *OUTSIDE[alias]):
        with pytest.raises(ValueError) as exc:
            call(bad)
        assert str(exc.value) == f"{arg} must be {WORDS[alias]}, got {bad}"
    for edge in EDGES[alias]:
        try:
            call(edge)
        except (ValueError, NoBreakEvenError) as exc:  # another check, such as a zero saving
            assert not str(exc).startswith(f"{arg} must be finite")


def test_every_module_with_a_record_class_keeps_annotations_as_text():
    """Without `from __future__ import annotations` an alias evaluates to
    `float`, and the fields it annotates go unchecked."""
    modules = {cls.__module__ for cls in RECORDS.values()}
    missing = []
    for module in sorted(modules):
        path = SRC.parent.joinpath(*module.split("."))
        path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
        tree = ast.parse(path.read_text())
        if not any(isinstance(node, ast.ImportFrom) and node.module == "__future__"
                   and any(a.name == "annotations" for a in node.names)
                   for node in tree.body):
            missing.append(module)
    assert modules and not missing
