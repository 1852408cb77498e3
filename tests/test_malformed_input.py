"""Malformed JSON inputs, and requests past what a float holds, exit 2 by name.

Every reader of a user's JSON file is fed the same bad documents: `5`,
`[1, 2]`, `{}`, the valid document with one key dropped, and one with a
nested entry of the wrong JSON type.  Through the CLI wherever a subcommand
reads the input (the fitted-model file through `load_model_json`), each case
must exit 2 with empty stdout and one `error:` line that names the input and
the key, never a Python message about subscripts or arguments.

`workload.check_fits` refuses, naming the config, both lengths and the
device, a request whose counts, roofline time or energy a float cannot hold;
a hypothesis property holds everything it accepts to finite numbers, and
both of its kernel graphs to rows of exact counts and a finite time.  Input
files are decoded as UTF-8 under any locale, and CSV lines end at "\n" only.
"""

import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from co2meter import assets, cli
from co2meter import device_models as dm
from co2meter.errors import UserInputError
from co2meter.predictor import featurize, globals_vector, node_feature_tensor
from co2meter.workload import (DeviceSpec, LlmConfig, Request, check_fits, kernel_costs,
                               phase_totals)

PYTHON_WORDS = ("subscriptable", "iterable", "positional argument", "indices must be")


def _asset(subdir, name):
    return json.loads((assets.asset_root() / subdir / f"{name}.json").read_text())


DEVICE = _asset("devices", "rk3588")
CONFIG = _asset("llm_configs", "tinyllama-11b")
BOM = {**_asset("boms", "rk3588"), "peripherals": [["wifi", 0.1]]}
PIPELINE = _asset("pipelines", "voice_assistant")
MODEL = dm.model_to_json("speaker", dm.FitReport(dm.SpeakerPowerModel(-0.05, 0.2), 1e-3, 0, 2))
REQUEST = ("--prompt-len", "8", "--output-len", "4")


def _bad_documents(doc, drop, nested, nested_value):
    """(id, document, the key its error names) for each bad form of doc:
    not an object twice, empty, `drop` dropped, and `nested` of the wrong type."""
    return [
        ("5", 5, None),
        ("list", [1, 2], None),
        ("empty", {}, drop),
        (f"no {drop}", {k: v for k, v in doc.items() if k != drop}, drop),
        (f"{nested} {type(nested_value).__name__}", {**doc, nested: nested_value}, nested),
    ]


def _placed(doc, path, value):
    """A deep copy of doc with the entry at path (keys and indices) set to value."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


# Where a bad document is placed: (reader id, the noun its errors use,
# the document around it and the path to it, the valid entry, drop, nested)
_PLACES = [
    ("device", "device spec", None, (), DEVICE, "peak_ops", "peak_ops", [1]),
    ("config", "llm config", None, (), CONFIG, "num_heads", "num_heads", {}),
    ("pipeline config", "llm config", PIPELINE, ("llm", "config"), CONFIG, "num_heads",
     "ffn_dim", [1]),
    ("pipeline device", "device spec", PIPELINE, ("llm", "device"), DEVICE, "dram_capacity",
     "idle_power", {}),
    ("dataset config", "llm config", "dataset", ("config",), CONFIG, "head_dim", "vocab_size",
     [2]),
    ("bom", "BOM", None, (), BOM, "dram_kg", "units", {}),
    ("bom unit", "BOM", BOM, ("units", 0), BOM["units"][0], "area_fraction", "area_fraction",
     []),
    ("pipeline", "pipeline", None, (), PIPELINE, "llm", "llm", 5),
    ("pipeline input", "pipeline", PIPELINE, ("input",), PIPELINE["input"], "kind",
     "duration_s", []),
    ("pipeline output", "pipeline", PIPELINE, ("output",), PIPELINE["output"], "kind",
     "pixels", {}),
    ("pipeline conversion", "pipeline", PIPELINE, ("conversion",), PIPELINE["conversion"],
     "task", "energy_j", [12]),
    ("pipeline llm", "pipeline", PIPELINE, ("llm",), PIPELINE["llm"], "prompt_len",
     "prompt_len", [8]),
    ("model", "model document", None, (), MODEL, "params", "params", 5),
    ("model params", "model document", MODEL, ("params",), MODEL["params"], "beta", "alpha",
     []),
]

_CASES = [
    pytest.param(reader, noun, around, path, bad, key, id=f"{reader}-{case}")
    for reader, noun, around, path, doc, drop, nested, value in _PLACES
    for case, bad, key in _bad_documents(doc, drop, nested, value)
]
# A BOM peripheral is a [name, kg] pair, so its bad forms are its own.
_CASES += [
    pytest.param("bom peripheral", "BOM", BOM, ("peripherals", 0), bad, "peripheral",
                 id=f"bom peripheral-{case}")
    for case, bad in [("5", 5), ("list", [1, 2]), ("empty", {}), ("no kg", ["wifi"]),
                      ("kg list", ["wifi", []])]
]
_CASES += [
    pytest.param("bom peripherals", "BOM", BOM, ("peripherals",), 5, "peripherals",
                 id="bom peripherals-5"),
]


@pytest.fixture(scope="module")
def dataset_line(tmp_path_factory):
    path = tmp_path_factory.mktemp("line") / "one.jsonl"
    assert cli.main(["dataset", "--n", "1", "--configs", "tinyllama-11b",
                     "--dataset-out", str(path), "--out", str(path) + ".json"]) == 0
    return json.loads(path.read_text())


def _argv(reader, path, tmp_path):
    if reader == "device":
        return ["estimate", "--device", path, *REQUEST]
    if reader == "config":
        return ["estimate", "--config", path, *REQUEST]
    if reader.startswith("bom"):
        return ["embodied", "--bom", path]
    if reader.startswith("pipeline"):
        return ["pipeline", "--pipeline", path]
    return ["train", "--dataset", path, "--params-out", tmp_path / "params.json"]


def _error_line(reader, path, tmp_path, capsys):
    """The one error line reading the file at path gives, after checking the
    CLI's exit code and stdout (the model file has no subcommand that reads it)."""
    if reader.startswith("model"):
        with pytest.raises(UserInputError) as exc:
            dm.load_model_json(path)
        return f"error: {exc.value}\n"
    code = cli.main([str(a) for a in _argv(reader, path, tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, ""), err
    return err


@pytest.mark.parametrize("reader, noun, around, path, bad, key", _CASES)
def test_malformed_json_input_exits_2_naming_the_input_and_key(
        capsys, tmp_path, dataset_line, reader, noun, around, path, bad, key):
    if around == "dataset":
        around = dataset_line
    doc = _placed(around, path, bad) if around is not None else bad
    file = tmp_path / ("bad.jsonl" if reader.startswith("dataset") else "bad.json")
    file.write_text(json.dumps(doc) + "\n")
    err = _error_line(reader, file, tmp_path, capsys)
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert noun in err, err
    if key is not None:
        assert key in err, err
    assert not any(word in err for word in PYTHON_WORDS), err
    if reader.startswith("dataset"):
        assert err.startswith(f"error: {file}:1: "), err


# ---------------------------------------------------------------------------
# Requests past what a float holds

HUGE_CONFIG = {"name": "huge-ffn", "num_layers": 1, "hidden_dim": 1, "num_heads": 1,
               "head_dim": 1, "ffn_dim": 10**307, "vocab_size": 1}
BIG_DEVICE = {**DEVICE, "name": "big-dram", "dram_capacity": 1.7e308}
SLOW_DEVICE = {**DEVICE, "name": "slow", "peak_ops": 1e-300, "mem_bandwidth": 1e-300}


def _overflow_argv(command, config, device, tmp_path):
    if command == "estimate":
        return ["estimate", "--config", config, "--device", device, *REQUEST,
                "--format", "csv"]
    if command == "whatif":
        return ["whatif", "--scenario", "rk-npu", "--config", config, "--device", device,
                "--prompt-lens", "8"]
    if command == "dataset":
        return ["dataset", "--n", "2", "--configs", config, "--devices", device,
                "--dataset-out", tmp_path / "out.jsonl"]
    pipeline = _placed(_placed(PIPELINE, ("llm", "config"), json.loads(config.read_text())),
                       ("llm", "device"), json.loads(device.read_text()))
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(pipeline))
    return ["pipeline", "--pipeline", path]


@pytest.mark.parametrize("config, device, command", [
    *[(HUGE_CONFIG, BIG_DEVICE, command) for command in ("estimate", "whatif", "dataset",
                                                         "pipeline")],
    *[(CONFIG, SLOW_DEVICE, command) for command in ("estimate", "whatif", "dataset")],
], ids=lambda value: value if isinstance(value, str) else value["name"])
def test_request_past_what_a_float_holds_exits_2_naming_it(capsys, tmp_path, config, device,
                                                           command):
    config_path, device_path = tmp_path / "config.json", tmp_path / "device.json"
    config_path.write_text(json.dumps(config))
    device_path.write_text(json.dumps(device))
    argv = _overflow_argv(command, config_path, device_path, tmp_path)
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert config["name"] in err and device["name"] in err, err
    assert re.search(r"prompt_len \d+ and output_len \d+", err), err
    assert "noise_sigma" not in err and not (tmp_path / "out.jsonl").exists()


def _magnitudes(high):
    """Positive integers up to high: a model's size, or one spread over the digit counts."""
    return st.one_of(st.integers(1, 4096), st.integers(1, len(str(high))).flatmap(
        lambda digits: st.integers(10 ** (digits - 1), min(high, 10 ** digits))))


_floats = st.one_of(st.integers(-320, 308).map(lambda e: 10.0 ** e),
                    st.just(sys.float_info.max),
                    st.floats(1e-3, 1e15))


@st.composite
def _wide_cases(draw):
    heads, head_dim = draw(_magnitudes(10**160)), draw(_magnitudes(10**160))
    cfg = LlmConfig("wide", draw(_magnitudes(10**40)), heads * head_dim, heads, head_dim,
                    draw(_magnitudes(10**310)), draw(_magnitudes(10**310)),
                    draw(st.sampled_from((1, 2, 4))), draw(st.sampled_from((1, 2, 4))))
    req = Request(draw(_magnitudes(10**12)), draw(_magnitudes(10**12)))
    idle = draw(_floats)
    active = idle * draw(st.sampled_from((1.0, 1.5, 10.0, 1e100)))
    dev = DeviceSpec("wide", draw(_floats), draw(_floats), idle,
                     active if active < math.inf else idle, draw(_floats))
    return cfg, req, dev


def _plain_row(row):
    """Six exact non-negative ints a float can hold, then a finite
    non-negative float time: what a `LayerGraph` row holds."""
    *counts, time_s = row
    return (len(counts) == 6 and all(type(n) is int and 0 <= n <= sys.float_info.max
                                     for n in counts)
            and type(time_s) is float and 0.0 <= time_s < math.inf)


@settings(max_examples=400, deadline=None)
@given(_wide_cases())
def test_what_check_fits_accepts_prices_and_featurizes_finite(case):
    cfg, req, dev = case
    try:
        check_fits(cfg, req, dev)
    except UserInputError:
        return
    rows = kernel_costs(cfg, req, dev)
    (prefill_s, prefill_j), (decode_s, decode_j) = phase_totals(rows)
    numbers = [prefill_s, prefill_j, decode_s, decode_j, prefill_j + decode_j]
    numbers += [value for row in rows for value in (row.flops, row.bytes, row.time_s,
                                                     row.energy_j)]
    assert all(math.isfinite(value) for value in numbers)
    x = featurize(cfg, req, dev)
    # `featurize` sets each input's phase; the inputs record checks none
    assert (x.prefill_graph.phase, x.prefill_globals.phase) == ("prefill", "prefill")
    assert (x.decode_graph.phase, x.total_globals.phase) == ("decode", "total")
    for graph in (x.prefill_graph, x.decode_graph):
        assert len(graph.rows) == 12
        assert all(_plain_row(row) for row in graph.rows), graph.rows
    assert np.isfinite(node_feature_tensor([x.prefill_graph, x.decode_graph])).all()
    assert np.isfinite(globals_vector(x.prefill_globals)).all()
    assert np.isfinite(globals_vector(x.total_globals)).all()


@pytest.mark.parametrize("config", assets.list_assets("llm_configs"))
@pytest.mark.parametrize("device", assets.list_assets("devices"))
def test_bundled_pairs_featurize_plain_rows(config, device):
    """Every config and device pair a dataset draws from, at the longest
    prompt and output the oracle samplers draw, builds both graphs of plain
    rows."""
    x = featurize(assets.load_llm_config(config), Request(512, 288), assets.load_device(device))
    for graph in (x.prefill_graph, x.decode_graph):
        assert len(graph.rows) == 12
        assert all(_plain_row(row) for row in graph.rows), graph.rows


# ---------------------------------------------------------------------------
# One UTF-8 text reader


def test_json_input_is_utf8_whatever_the_locale(tmp_path):
    """A device spec with a non-ASCII note reads under the C locale too."""
    path = tmp_path / "device.json"
    path.write_bytes(json.dumps({**DEVICE, "notes": "8 GB LPDDR4x, 25 °C"},
                                ensure_ascii=False).encode())
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": src}
    argv = ["estimate", "--device", str(path), *REQUEST]
    got = subprocess.run([sys.executable, "-m", "co2meter.cli", *argv], env=env,
                         capture_output=True, text=True)
    assert (got.returncode, got.stderr) == (0, ""), got.stderr
    assert json.loads(got.stdout)["device"] == DEVICE["name"]


def test_csv_lines_end_at_newlines_only(tmp_path):
    header = ",".join(dm._CSV_HEADER)
    path = tmp_path / "u.csv"
    path.write_text(f"{header}\nenergy,1\u2028,1,1\nenergy,x,1,1\n", encoding="utf-8")
    with pytest.raises(UserInputError, match=f"^{re.escape(str(path))}:3: "):
        dm.load_samples_csv(path)
    path.write_bytes(f"{header}\r\nenergy,1,1,1\r\nenergy,2,1,1.5\r\n".encode())
    assert [s.predictor for s in dm.load_samples_csv(path)] == [1.0, 2.0]
    path.write_bytes(f"{header}\nenergy,1,1,1\renergy,2,1,1.5\n".encode())
    with pytest.raises(UserInputError, match=f"^{re.escape(str(path))}:2: "):
        dm.load_samples_csv(path)
