"""CLI behavior: determinism, round trips through files, and exit codes."""

import base64
import copy
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from co2meter import assets, cli
from co2meter import device_models as dm
from co2meter import accounting
from co2meter.accounting import breakeven_requests, load_ci_table
from co2meter.embodied import load_bom_json
from co2meter.errors import UserInputError
from co2meter.predictor import (
    TrainConfig,
    evaluate_baseline_total,
    featurize,
    fit_ridge_globals,
    init_params,
    load_params_json,
    measured_sample,
    params_from_json,
    predict_sample,
    predict_single_phase,
    read_dataset_jsonl,
    save_params_json,
    split_indices,
    train_single_phase,
)
from co2meter.workload import (_LAYER_EDGES, LAYER_KINDS, ROW_FIELDS, Request, load_config_json,
                               load_device_json, request_energy)
from oracle_reference import reference_costs

TRUTH = json.loads(
    (assets.asset_root() / "measurements" / "truth.json").read_text()
)


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small dataset plus trained parameters shared by the slower tests."""
    d = tmp_path_factory.mktemp("cli")
    assert cli.main([
        "dataset", "--n", "12", "--dataset-out", str(d / "tiny.jsonl"),
        "--out", str(d / "gen.json"),
    ]) == 0
    assert cli.main([
        "train", "--dataset", str(d / "tiny.jsonl"),
        "--params-out", str(d / "params.json"), "--epochs", "2",
        "--out", str(d / "train_metrics.json"),
    ]) == 0
    return d


# ---------------------------------------------------------------------------
# Determinism


def test_repeated_invocations_are_byte_identical(tmp_path):
    cases = [
        ("dataset", "--n", "6", "--dataset-out", "DS", "--out", "OUT"),
        ("embodied", "--bom", "rk3588", "--out", "OUT"),
        ("whatif", "--scenario", "rk-mem", "--out", "OUT"),
        ("fit", "net", str(assets.measurement_csv("net")), "--out", "OUT"),
        ("roofline", "--format", "csv", "--out", "OUT"),
    ]
    for case in cases:
        out = tmp_path / f"{case[0]}.out"
        ds = tmp_path / f"{case[0]}.jsonl"
        argv = [str(ds) if a == "DS" else str(out) if a == "OUT" else a for a in case]
        outputs = []
        for _ in range(2):
            assert cli.main(argv) == 0
            blob = out.read_bytes()
            if case[0] == "dataset":
                blob += ds.read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1], case[0]


def test_out_file_matches_stdout(capsys, tmp_path):
    code, out, _ = run(capsys, "embodied", "--bom", "rk3588")
    assert code == 0
    path = tmp_path / "report.json"
    assert cli.main(["embodied", "--bom", "rk3588", "--out", str(path)]) == 0
    assert path.read_text() == out


# ---------------------------------------------------------------------------
# fit


def test_fit_recovers_bundled_truth_and_round_trips(capsys, tmp_path):
    path = tmp_path / "net.json"
    assert cli.main([
        "fit", "net", str(assets.measurement_csv("net")), "--out", str(path),
    ]) == 0
    name, model, mae = dm.load_model_json(path)
    assert name == "net"
    truth = TRUTH["net"]
    assert model.static_power_w == pytest.approx(truth["static_power_w"], rel=1e-9)
    assert model.marginal_energy_j == pytest.approx(truth["marginal_energy_j"], rel=1e-6)
    assert mae == pytest.approx(0.0, abs=1e-9)
    doc = json.loads(path.read_text())
    assert doc["n_samples"] == 20
    assert doc["max_abs_err"] < 1e-9


def test_fit_csv_output_is_key_value(capsys):
    code, out, _ = run(
        capsys, "fit", "display", str(assets.measurement_csv("display")),
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert lines[1] == "model,display"
    cells = dict(line.split(",", 1) for line in lines[1:])
    assert float(cells["a_w"]) == pytest.approx(TRUTH["display"]["a_w"], rel=1e-9)
    assert "mae" in cells and "n_samples" in cells


def _fresh_python(script: str) -> subprocess.CompletedProcess:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=120,
    )


def test_fit_in_fresh_interpreter_imports_no_scipy(tmp_path):
    argv = ["fit", "speaker", str(assets.measurement_csv("speaker")),
            "--out", str(tmp_path / "speaker.json")]
    script = (
        "import sys\n"
        "from co2meter import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = _fresh_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


def test_cold_subcommands_in_fresh_interpreter_import_no_numpy(tmp_path):
    # only dataset, train, eval and pipeline --params load the predictor
    argvs = [
        ["estimate", "--prompt-len", "100", "--output-len", "20"],
        ["embodied", "--bom", "rk3588"],
        ["whatif", "--scenario", "rk-npu"],
        ["breakeven", "--delta-embodied", "1.5", "--delta-energy", "120"],
        ["roofline"],
        *(["fit", m, str(assets.measurement_csv(m))] for m in dm.MODEL_NAMES),
        ["pipeline"],
        ["pipeline", "--requests-per-day", "100", "--region", "india"],
    ]
    script = (
        "import sys\n"
        "from co2meter import cli\n"
        f"for i, argv in enumerate({argvs!r}):\n"
        f"    code = cli.main(argv + ['--out', {str(tmp_path)!r} + f'/{{i}}.out'])\n"
        "    print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    proc = _fresh_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 []"] * len(argvs)


def test_predictor_loads_on_first_access():
    script = (
        "import sys\n"
        "import co2meter\n"
        "print('co2meter.predictor' in sys.modules, 'numpy' in sys.modules)\n"
        "print(callable(co2meter.predictor.train), 'numpy' in sys.modules)\n"
        "namespace = {}\n"
        "exec('from co2meter import *', namespace)\n"
        "print(namespace['predictor'] is co2meter.predictor)\n"
        "try:\n"
        "    co2meter.no_such_module\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    proc = _fresh_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False False",
        "True True",
        "True",
        "module 'co2meter' has no attribute 'no_such_module'",
    ]


_COLD_BASE = ("co2meter", "co2meter.assets", "co2meter.cli", "co2meter.errors")
_ALL_COLD = ("accounting", "device_models", "embodied", "workload")


@pytest.mark.parametrize("argv, modules", [
    (["fit", "net", str(assets.measurement_csv("net"))], ("device_models",)),
    (["estimate", "--prompt-len", "100", "--output-len", "20"], ("workload",)),
    (["roofline"], ("workload",)),
    (["embodied", "--bom", "rk3588"], ("embodied",)),
    (["whatif", "--scenario", "rk-npu"], ("embodied", "workload")),
    (["breakeven", "--delta-embodied", "1.5", "--delta-energy", "120"], ("accounting",)),
    (["pipeline"], _ALL_COLD),
    (["pipeline", "--requests-per-day", "100", "--region", "india"], _ALL_COLD),
], ids=["fit", "estimate", "roofline", "embodied", "whatif", "breakeven", "pipeline",
        "pipeline-footprint"])
def test_cold_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    script = (
        "import sys\n"
        "from co2meter import cli\n"
        f"code = cli.main({argv + ['--out', str(tmp_path / 'out')]!r})\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'co2meter'))\n"
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
    )
    proc = _fresh_python(script)
    assert proc.returncode == 0, proc.stderr
    expected = sorted({*_COLD_BASE, *(f"co2meter.{m}" for m in modules)})
    # nor does it load dataclasses, or inspect through it
    assert proc.stdout == f"0 {expected}\n[]\n"


def test_bare_import_loads_submodules_on_first_access():
    # errors holds the exception classes the package re-exports
    script = (
        "import sys\n"
        "import co2meter\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'co2meter'))\n"
        "print(co2meter.workload.Request.__name__, 'co2meter.workload' in sys.modules)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'co2meter'))\n"
    )
    proc = _fresh_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['co2meter', 'co2meter.errors']",
        "Request True",
        "['co2meter', 'co2meter.errors', 'co2meter.workload']",
    ]


# ---------------------------------------------------------------------------
# estimate / roofline


def test_estimate_reports_consistent_phases(capsys):
    doc = run_json(capsys, "estimate", "--prompt-len", "100", "--output-len", "16")
    assert doc["config"] == "qwen1.5-0.5b"
    assert doc["device"] == "rk3588"
    total = doc["prefill"]["energy_j"] + doc["decode"]["energy_j"]
    assert doc["total_energy_j"] == pytest.approx(total, rel=1e-12)
    assert doc["decode"]["boundedness_mid"] == "memory_bound"
    assert doc["prefill"]["intensity"] > doc["decode"]["intensity_mid"]
    (prefill_s, prefill_j), (decode_s, decode_j) = reference_costs(
        assets.load_llm_config("qwen15-05b"), Request(100, 16),
        assets.load_device("rk3588"),
    )
    assert doc["prefill"]["time_s"] == pytest.approx(prefill_s, rel=1e-12)
    assert doc["decode"]["time_s"] == pytest.approx(decode_s, rel=1e-12)
    assert doc["prefill"]["energy_j"] == pytest.approx(prefill_j, rel=1e-12)
    assert doc["decode"]["energy_j"] == pytest.approx(decode_j, rel=1e-12)


def test_estimate_csv_flattens_nested_keys(capsys):
    code, out, _ = run(
        capsys, "estimate", "--prompt-len", "100", "--output-len", "16",
        "--format", "csv",
    )
    assert code == 0
    keys = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert "prefill.energy_j" in keys
    assert "decode.boundedness_mid" in keys


def test_estimate_breakdown_rows_sum_to_phase_totals(capsys):
    argv = ("estimate", "--config", "internlm2-18b", "--device", "agx_orin",
            "--prompt-len", "500", "--output-len", "1500")
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    doc = run_json(capsys, *argv, "--breakdown")
    kernels = doc.pop("kernels")
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == plain
    assert [k["phase"] for k in kernels] == ["prefill"] * 12 + ["decode"] * 12
    for phase in ("prefill", "decode"):
        rows = [k for k in kernels if k["phase"] == phase]
        for field in ("time_s", "energy_j"):
            assert sum(k[field] for k in rows) == pytest.approx(doc[phase][field], rel=1e-12)
        assert all(k["flip_position"] is None for k in rows if k["kind"] != "attn_score")
    code, out, _ = run(capsys, *argv, "--breakdown", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "phase,kind,flops,bytes,time_s,energy_j,boundedness,flip_position"
    assert [line.split(",") for line in lines[1:]] == [
        [str(k[c]) if k[c] is not None else "" for c in lines[0].split(",")]
        for k in kernels
    ]


def test_roofline_emits_roof_and_kernel_points(capsys):
    doc = run_json(capsys, "roofline")
    assert doc["device"]["ridge_point"] == pytest.approx(117.1875)
    assert len(doc["roof"]) == 37
    assert len(doc["kernels"]) == 24
    for point in doc["roof"]:
        expected = min(
            doc["device"]["peak_ops"],
            doc["device"]["mem_bandwidth"] * point["intensity"],
        )
        assert point["perf"] == pytest.approx(expected, rel=1e-12)
    kinds = {k["kind"] for k in doc["kernels"]}
    assert "attn_score" in kinds and "ffn_up" in kinds


# ---------------------------------------------------------------------------
# dataset / train / eval


def test_dataset_writes_loadable_jsonl(capsys, tmp_path):
    path = tmp_path / "out.jsonl"
    doc = run_json(capsys, "dataset", "--n", "8", "--dataset-out", str(path))
    assert doc == {"n": 8, "path": str(path)}
    samples = read_dataset_jsonl(path)
    assert len(samples) == 8
    assert {s.device_id for s in samples} == {"rk3588"}


def test_dataset_mixed_regime_and_multi_device(capsys, tmp_path):
    path = tmp_path / "mixed.jsonl"
    doc = run_json(
        capsys, "dataset", "--n", "10", "--regime", "mixed",
        "--devices", "rk3588,rk3568", "--dataset-out", str(path),
    )
    assert doc["n"] == 10
    samples = read_dataset_jsonl(path)
    assert {s.device_id for s in samples} == {"rk3588", "rk3568"}
    # mixed regime draws either long prompts or long outputs, never both
    for s in samples:
        gf = s.total_globals
        assert (gf.prompt_len >= 192) != (gf.output_len >= 128)


def test_dataset_n_zero_writes_empty_file(capsys, tmp_path):
    path = tmp_path / "empty.jsonl"
    doc = run_json(capsys, "dataset", "--n", "0", "--dataset-out", str(path))
    assert doc["n"] == 0
    assert path.read_bytes() == b""


def test_dataset_with_overflowing_noise_exits_2_and_writes_nothing(capsys, tmp_path):
    path = tmp_path / "big.jsonl"
    code, out, err = run(capsys, "dataset", "--n", "3", "--sigma", "1e308",
                         "--dataset-out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "label" in err and err.count("\n") == 1
    assert not path.exists()


def test_train_history_out_lines_and_unchanged_stdout(capsys, tmp_path, workdir):
    argv = ["train", "--dataset", str(workdir / "tiny.jsonl"),
            "--params-out", str(tmp_path / "p.json"), "--epochs", "3"]
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    history = tmp_path / "history.jsonl"
    code, out, _ = run(capsys, *argv, "--history-out", str(history))
    assert (code, out) == (0, plain)
    entries = [json.loads(line) for line in history.read_text().splitlines()]
    assert len(entries) == 2 * 3
    assert [(e["tower"], e["epoch"]) for e in entries] == [
        (tower, epoch) for tower in ("prefill", "total") for epoch in range(3)
    ]
    for entry in entries:
        assert set(entry) == {"tower", "epoch", "train_loss", "val_mape", "val_eb10"}

    # without a validation split the lines carry no validation metrics
    code, _, _ = run(capsys, *argv, "--val-frac", "0", "--history-out", str(history))
    assert code == 0
    for line in history.read_text().splitlines():
        assert set(json.loads(line)) == {"tower", "epoch", "train_loss"}


def test_train_saves_params_with_meta(workdir):
    params, meta = load_params_json(workdir / "params.json")
    assert meta["epochs"] == 2
    assert meta["seed"] == 42
    assert meta["n_samples"] == 12
    assert meta["train_frac"] == 0.8
    metrics = json.loads((workdir / "train_metrics.json").read_text())
    assert set(metrics) == {"train", "val", "test"}
    for split in metrics.values():
        assert set(split) == {"prefill", "total"}
        for phase in split.values():
            assert phase["mape"] >= 0 and 0 <= phase["eb10"] <= 100


def test_eval_reproduces_train_metrics_exactly(capsys, workdir):
    code, out, _ = run(
        capsys, "eval", "--dataset", str(workdir / "tiny.jsonl"),
        "--params", str(workdir / "params.json"),
    )
    assert code == 0
    assert out == (workdir / "train_metrics.json").read_text()


def test_eval_falls_back_to_the_train_config_defaults(capsys, tmp_path, workdir):
    """A params file whose meta lacks the seed, split and epochs is evaluated
    with `--seed` and `TrainConfig()`'s fractions and epochs."""
    params, _ = load_params_json(workdir / "params.json")
    bare, stated = tmp_path / "bare.json", tmp_path / "stated.json"
    save_params_json(bare, params)
    defaults = TrainConfig()
    save_params_json(stated, params, meta={
        "seed": 7, "train_frac": defaults.train_frac, "val_frac": defaults.val_frac,
        "epochs": defaults.epochs})
    outputs = [run(capsys, "eval", "--dataset", workdir / "tiny.jsonl", "--params", path,
                   "--seed", "7", "--compare-baselines") for path in (bare, stated)]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0, outputs[0]


def test_eval_compare_baselines(capsys, workdir):
    doc = run_json(
        capsys, "eval", "--dataset", str(workdir / "tiny.jsonl"),
        "--params", str(workdir / "params.json"),
        "--compare-baselines", "--baseline-epochs", "2",
    )
    comparison = doc["comparison"]
    assert set(comparison) == {"two_phase", "single_phase", "ridge"}
    assert comparison["two_phase"] == doc["metrics"]["test"]["total"]
    for scheme in comparison.values():
        assert scheme["n"] == doc["metrics"]["test"]["total"]["n"]
        assert np.isfinite(scheme["mape"])


def test_eval_compare_baselines_csv_rows(capsys, workdir):
    code, out, _ = run(
        capsys, "eval", "--dataset", str(workdir / "tiny.jsonl"),
        "--params", str(workdir / "params.json"),
        "--compare-baselines", "--baseline-epochs", "2", "--format", "csv",
    )
    assert code == 0
    series = [line.split(",")[:2] for line in out.splitlines()[1:]]
    assert ["train", "prefill"] in series
    assert ["test", "two_phase"] in series
    assert ["test", "ridge"] in series


def test_eval_baseline_rows_equal_library_calls_on_samples(capsys, workdir):
    """The CLI hands each baseline the rows of one table; the library on
    sample lists gives the same bits."""
    doc = run_json(
        capsys, "eval", "--dataset", str(workdir / "tiny.jsonl"),
        "--params", str(workdir / "params.json"),
        "--compare-baselines", "--baseline-epochs", "2",
    )
    dataset = read_dataset_jsonl(workdir / "tiny.jsonl")
    _, meta = load_params_json(workdir / "params.json")
    cfg = TrainConfig(epochs=2, seed=meta["seed"], train_frac=meta["train_frac"],
                      val_frac=meta["val_frac"])
    train_idx, _, test_idx = split_indices(len(dataset), cfg.train_frac, cfg.val_frac, cfg.seed)
    test = [dataset[i] for i in test_idx]
    single, _ = train_single_phase(dataset, cfg)
    ridge = fit_ridge_globals([dataset[i] for i in train_idx])
    for scheme, preds in (("single_phase", predict_single_phase(single, test)),
                          ("ridge", ridge.predict(test))):
        m = evaluate_baseline_total(preds, test)
        assert doc["comparison"][scheme] == {"mape": m.mape, "eb10": m.eb10, "n": m.n}, scheme


# ---------------------------------------------------------------------------
# embodied / whatif / breakeven


def test_embodied_report_structure(capsys):
    doc = run_json(capsys, "embodied", "--bom", "rk3588")
    assert doc["total_kg"] == pytest.approx(4.5765, abs=5e-4)
    assert doc["llm_fraction_pct"] == pytest.approx(10.34, abs=0.01)
    components = dict(doc["components"].items())
    assert components["die:npu"] == pytest.approx(0.0534, abs=1e-4)


def test_embodied_csv_has_component_rows(capsys):
    code, out, _ = run(capsys, "embodied", "--bom", "rk3588", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("component,")
    assert lines[-1].startswith("total,")


def test_embodied_custom_attribution(capsys):
    doc = run_json(
        capsys, "embodied", "--bom", "rk3588", "--llm-components", "die:npu",
    )
    assert doc["llm_fraction_pct"] == pytest.approx(100.0 * 0.0534 / 4.5765, abs=0.01)


def assert_one_error_line(code, out, err):
    assert (code, out) == (2, ""), err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("components", ["pcb,pcb", "die:npu,die:npu", "dram,pcb,dram"])
def test_embodied_repeated_components_exit_2(capsys, components, fmt):
    assert_one_error_line(*run(capsys, "embodied", "--bom", "rk3588",
                               "--llm-components", components, "--format", fmt))


@pytest.mark.parametrize("flag", ["--device", "--config"])
def test_unknown_asset_name_exits_2_naming_the_bundled_ones(capsys, flag):
    code, out, err = run(capsys, "estimate", flag, "no-such-asset",
                         "--prompt-len", "8", "--output-len", "8")
    assert_one_error_line(code, out, err)
    subdir = {"--device": "devices", "--config": "llm_configs"}[flag]
    have = assets.list_assets(subdir)
    assert err == f"error: no bundled {subdir} asset 'no-such-asset'; have {have}\n"


def test_asset_root_override_serves_its_own_assets(capsys, tmp_path, monkeypatch):
    root = tmp_path / "assets"
    shutil.copytree(assets.asset_root() / "llm_configs", root / "llm_configs")
    (root / "devices").mkdir()
    doc = json.loads((assets.asset_root() / "devices" / "rk3588.json").read_text())
    doc["name"] = "bench-board"
    (root / "devices" / "bench-board.json").write_text(json.dumps(doc))
    (root / "devices" / "folder.json").mkdir()  # a directory is no asset
    monkeypatch.setenv(assets.ASSETS_ENV_VAR, str(root))
    argv = ["estimate", "--prompt-len", "8", "--output-len", "8", "--device"]
    assert run_json(capsys, *argv, "bench-board")["device"] == "bench-board"
    for name in ("rk3588", "folder"):
        code, out, err = run(capsys, *argv, name)
        assert_one_error_line(code, out, err)
        assert err == (f"error: no bundled devices asset {name!r}; "
                       "have ['bench-board', 'folder']\n")


@pytest.mark.parametrize("kind", ["file", "missing"])
def test_asset_root_that_is_no_directory_exits_2(capsys, tmp_path, monkeypatch, kind):
    root = tmp_path / "assets"
    if kind == "file":
        root.write_text("{}")
    monkeypatch.setenv(assets.ASSETS_ENV_VAR, str(root))
    for argv in (["estimate", "--prompt-len", "8", "--output-len", "8"],
                 ["embodied", "--bom", "rk3588"]):
        code, out, err = run(capsys, *argv)
        assert_one_error_line(code, out, err)
        assert err == f"error: asset root {root} is not a directory\n"


_ROOT_READERS = {
    "load_carbon_intensities": assets.load_carbon_intensities,
    "measurement_csv": lambda: assets.measurement_csv("net"),
}


@pytest.mark.parametrize("kind", ["file", "missing"])
@pytest.mark.parametrize("reader", list(_ROOT_READERS.values()), ids=list(_ROOT_READERS))
def test_asset_readers_inspect_the_root_only_when_a_file_is_missing(
        tmp_path, monkeypatch, reader, kind):
    inspected = []
    asset_root = assets.asset_root
    monkeypatch.setattr(assets, "asset_root", lambda: inspected.append(1) or asset_root())
    reader()
    assert inspected == []
    root = tmp_path / "assets"
    if kind == "file":
        root.write_text("{}")
    monkeypatch.setenv(assets.ASSETS_ENV_VAR, str(root))
    with pytest.raises(UserInputError) as exc:
        reader()
    assert str(exc.value) == f"asset root {root} is not a directory"
    assert inspected == [1]


# Every JSON loader with what its "cannot read" error calls the file
_JSON_LOADERS = [
    ("device spec", load_device_json),
    ("llm config", load_config_json),
    ("BOM", load_bom_json),
    ("carbon-intensity table", load_ci_table),
    ("pipeline", accounting.load_pipeline_json),
    ("model file", dm.load_model_json),
    ("predictor params", load_params_json),
]
_LOADER_IDS = [loader.__name__ for _, loader in _JSON_LOADERS]


@pytest.mark.parametrize("content", [None, "{nope"], ids=["missing", "invalid"])
@pytest.mark.parametrize("what, loader", _JSON_LOADERS, ids=_LOADER_IDS)
def test_json_loaders_name_the_file_they_cannot_read(tmp_path, what, loader, content):
    path = tmp_path / "doc.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises((OSError, ValueError)) as cause:
        json.loads(path.read_text())
    with pytest.raises(UserInputError) as exc:
        loader(path)
    assert str(exc.value) == f"cannot read {what} {path}: {cause.value}"
    assert type(exc.value.__cause__) is cause.type


@pytest.mark.parametrize("loader", [loader for _, loader in _JSON_LOADERS], ids=_LOADER_IDS)
def test_json_loaders_refuse_a_document_that_is_no_object(tmp_path, loader):
    path = tmp_path / "doc.json"
    path.write_text("[1, 2]")
    with pytest.raises(UserInputError):
        loader(path)


def test_whatif_scenarios(capsys):
    doc = run_json(capsys, "whatif", "--scenario", "rk-mem")
    assert doc["embodied"]["base_kg"] == pytest.approx(4.5765, abs=5e-4)
    assert doc["embodied"]["modified_kg"] == pytest.approx(5.8365, abs=5e-4)
    assert doc["embodied"]["increase_pct"] == pytest.approx(27.53, abs=0.05)
    speedups = {p["prompt_len"]: p["speedup"] for p in doc["prefill_speedup"]}
    assert set(speedups) == {50, 100, 150}
    assert all(1.0 < s <= 4.0 for s in speedups.values())

    doc = run_json(capsys, "whatif", "--scenario", "rk-npu")
    assert doc["embodied"]["increase_pct"] == pytest.approx(35.70, abs=0.05)
    speedups = {p["prompt_len"]: p["speedup"] for p in doc["prefill_speedup"]}
    assert all(4.0 <= s <= 8.0 for s in speedups.values())


@pytest.mark.parametrize("lens", [",", "", ",,"])
def test_whatif_without_prompt_lengths_exits_2(capsys, lens):
    code, out, err = run(capsys, "whatif", "--scenario", "rk-npu", "--prompt-lens", lens)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--prompt-lens" in err


@pytest.mark.parametrize("lens, entry", [("a,1", "a"), ("50,1.5", "1.5"), ("50, x", " x")])
def test_whatif_prompt_length_that_is_no_integer_exits_2(capsys, lens, entry):
    code, out, err = run(capsys, "whatif", "--scenario", "rk-npu", "--prompt-lens", lens)
    assert_one_error_line(code, out, err)
    assert err == f"error: --prompt-lens entry {entry!r} is not an integer\n"


@pytest.mark.parametrize("lens, entry", [("0", "0"), ("50,-3", "-3")])
def test_whatif_prompt_length_below_1_exits_2_naming_the_entry(capsys, lens, entry):
    code, out, err = run(capsys, "whatif", "--scenario", "rk-npu", "--prompt-lens", lens)
    assert_one_error_line(code, out, err)
    assert err == f"error: --prompt-lens entry {entry!r} must be >= 1\n"


@pytest.mark.parametrize("command", ["estimate", "roofline"])
@pytest.mark.parametrize("prompt, output, flag, value", [
    ("0", "4", "--prompt-len", 0), ("4", "0", "--output-len", 0),
    ("-2", "-5", "--prompt-len", -2), ("4", "-1", "--output-len", -1),
])
def test_request_length_below_1_exits_2_naming_the_flag(capsys, command, prompt, output,
                                                        flag, value):
    code, out, err = run(capsys, command, "--prompt-len", prompt, "--output-len", output)
    assert_one_error_line(code, out, err)
    assert err == f"error: {flag} {value} must be >= 1\n"


def test_breakeven_matches_library_and_sorts_by_ci(capsys):
    doc = run_json(capsys, "breakeven", "--delta-embodied", "1.26", "--delta-energy", "150")
    table = assets.load_carbon_intensities()
    for region, entry in doc.items():
        expected = breakeven_requests(1.26, 150.0, table[region], 5.0)
        assert entry["requests_per_day"] == pytest.approx(expected, rel=1e-12)

    code, out, _ = run(
        capsys, "breakeven", "--delta-embodied", "1.26", "--delta-energy", "150",
        "--format", "csv",
    )
    assert code == 0
    regions = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert regions == ["france", "global", "india"]


def test_breakeven_single_region(capsys):
    doc = run_json(
        capsys, "breakeven", "--delta-embodied", "1.0", "--delta-energy", "100",
        "--region", "france",
    )
    assert list(doc) == ["france"]


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_oracle_breakdown(capsys):
    doc = run_json(capsys, "pipeline")
    assert doc["pipeline"] == "voice_assistant"
    assert doc["llm_source"] == "oracle"
    b = doc["breakdown"]
    assert set(b) == {"input", "con", "llm", "output", "sys", "total_j"}
    parts = b["input"] + b["con"] + b["llm"] + b["output"] + b["sys"]
    assert b["total_j"] == pytest.approx(parts, rel=1e-12)
    assert b["output"] / b["total_j"] > 0.55


def test_pipeline_variants_change_the_right_stage(capsys):
    base = run_json(capsys, "pipeline")["breakdown"]
    camera = run_json(capsys, "pipeline", "--input", "camera")["breakdown"]
    speaker = run_json(capsys, "pipeline", "--output", "speaker")["breakdown"]
    assert camera["input"] < base["input"]
    assert camera["output"] == base["output"]
    assert speaker["output"] < base["output"]
    assert (base["total_j"] - speaker["total_j"]) / base["total_j"] > 0.5


def test_pipeline_fits_only_the_models_its_stages_read(capsys, monkeypatch):
    fitted = []
    fit = dm.fit_by_name

    def counting(name, samples):
        fitted.append(name)
        return fit(name, samples)

    monkeypatch.setattr(dm, "fit_by_name", counting)
    for argv, names in (
        ((), ["mic", "display", "video"]),
        (("--input", "camera", "--output", "speaker"), ["camera", "speaker"]),
    ):
        fitted.clear()
        run_json(capsys, "pipeline", *argv)
        assert fitted == names


@pytest.mark.parametrize(
    "stage,kind,flag",
    [
        ("input", {"kind": "camera", "duration_s": 2.0, "frames": 3}, ("--input", "mic")),
        ("output", {"kind": "speaker", "duration_s": 480.0, "volume": 60.0},
         ("--output", "display")),
    ],
    ids=["mic-on-camera", "display-on-speaker"],
)
def test_pipeline_swap_without_stage_parameters_exits_2(capsys, tmp_path, stage, kind, flag):
    # a mic or display stage has parameters (sample count, grey level) that a
    # camera or speaker pipeline does not carry, so the swap is refused
    doc = json.loads((assets.asset_root() / "pipelines" / "voice_assistant.json").read_text())
    doc[stage] = kind
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "pipeline", "--pipeline", path)[0] == 0
    code, out, err = run(capsys, "pipeline", "--pipeline", path, *flag)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag[0]} {flag[1]}:")


def _pipeline_file(tmp_path, side, stage):
    """The bundled pipeline, its `side` stage replaced by `stage`, written to tmp_path."""
    doc = json.loads((assets.asset_root() / "pipelines" / "voice_assistant.json").read_text())
    doc[side] = stage
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(doc))
    return path


_STAGE_FILES = {
    ("input", "mic"): {"kind": "mic", "duration_s": 420.0, "samples": 6720000},
    ("input", "camera"): {"kind": "camera", "duration_s": 2.0, "frames": 3},
    ("output", "display"): {"kind": "display", "duration_s": 480.0, "grey": 128, "pixels": 384000},
    ("output", "speaker"): {"kind": "speaker", "duration_s": 480.0, "volume": 60.0},
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("side, kind", sorted(_STAGE_FILES), ids=lambda v: v)
def test_pipeline_stage_missing_a_field_exits_2(capsys, tmp_path, side, kind, fmt):
    cls = accounting.STAGE_KINDS[side][kind]
    assert set(_STAGE_FILES[side, kind]) == {"kind", *cls._fields}
    path = _pipeline_file(tmp_path, side, _STAGE_FILES[side, kind])
    assert run(capsys, "pipeline", "--pipeline", path, "--format", fmt)[0] == 0
    for field in cls._fields:
        stage = {k: v for k, v in _STAGE_FILES[side, kind].items() if k != field}
        path = _pipeline_file(tmp_path, side, stage)
        code, out, err = run(capsys, "pipeline", "--pipeline", path, "--format", fmt)
        assert (code, out, err) == (2, "", f"error: malformed pipeline: {side} is missing "
                                               f"{field!r}\n")


def test_pipeline_grey_above_the_panel_range_exits_2(capsys, tmp_path):
    stage = {**_STAGE_FILES["output", "display"], "grey": 300}
    path = _pipeline_file(tmp_path, "output", stage)
    code, out, err = run(capsys, "pipeline", "--pipeline", path)
    assert (code, out) == (2, "")
    assert err == "error: malformed pipeline: DisplayOutput.grey must be <= 255, got 300.0\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("usage", [("--requests-per-day", "1e306"),
                                   ("--requests-per-day", "1", "--lifespan", "1e306")],
                         ids=["requests-per-day", "lifespan"])
def test_pipeline_footprint_that_overflows_names_the_usage(capsys, usage, fmt):
    code, out, err = run(capsys, "pipeline", *usage, "--format", fmt)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: lifetime energy is not finite: \S+ J per request at "
                        r"requests_per_day \S+ over lifespan_years \S+\n", err), err
    requests = float(err.split("requests_per_day ")[1].split()[0])
    lifespan = float(err.split("lifespan_years ")[1])
    assert (requests, lifespan) == ((1e306, 5.0) if len(usage) == 2 else (1.0, 1e306))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_pipeline_footprint_that_overflows_through_the_carbon_intensity_exits_2(
        capsys, tmp_path, fmt):
    table = tmp_path / "ci.json"
    table.write_text(json.dumps({"x": 1e308}))
    code, out, err = run(capsys, "pipeline", "--requests-per-day", "1000", "--ci-table", table,
                         "--region", "x", "--format", fmt)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: lifetime carbon is not finite: \S+ kg embodied plus \S+ J "
                        r"in region 'x' at 1e\+308 kg/kWh\n", err), err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pipeline_with_params_whose_llm_energy_overflows_exits_2(capsys, tmp_path, fmt):
    params = init_params(0)
    params.total.bh2[0] = 1000.0  # finite, so the file loads; its energy is not
    path = tmp_path / "params.json"
    save_params_json(path, params)
    code, out, err = run(capsys, "pipeline", "--params", path, "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: LLM stage energy must be finite and positive, got inf\n"


def test_pipeline_with_predictor_params(capsys, workdir):
    doc = run_json(capsys, "pipeline", "--params", str(workdir / "params.json"))
    assert doc["llm_source"] == "predictor"
    assert doc["breakdown"]["llm"] > 0
    llm = assets.load_demo_pipeline("voice_assistant").llm
    params, _ = load_params_json(workdir / "params.json")
    inputs = featurize(llm.config, llm.request, llm.device)
    assert doc["breakdown"]["llm"] == predict_sample(params, inputs)[1]
    oracle = run_json(capsys, "pipeline")["breakdown"]
    # everything but the llm stage is shared with the oracle run
    assert doc["breakdown"]["input"] == oracle["input"]
    assert doc["breakdown"]["output"] == oracle["output"]


def test_pipeline_footprint_block(capsys):
    doc = run_json(
        capsys, "pipeline", "--requests-per-day", "100", "--region", "india",
    )
    fp = doc["footprint"]
    assert fp["region"] == "india"
    assert fp["total_kg"] == pytest.approx(
        fp["embodied_kg"] + fp["operational_kg"], rel=1e-12
    )
    assert fp["embodied_kg"] == pytest.approx(4.5765, abs=5e-4)


def test_successive_in_process_calls_do_not_share_values(capsys):
    first = run_json(capsys, "estimate", "--config", "internlm2-18b", "--device",
                     "agx_orin", "--prompt-len", "64", "--output-len", "8")
    second = run_json(capsys, "estimate", "--prompt-len", "64", "--output-len", "8")
    names = [(assets.load_llm_config(c).name, assets.load_device(d).name)
             for c, d in (("internlm2-18b", "agx_orin"), ("qwen15-05b", "rk3588"))]
    assert [(doc["config"], doc["device"]) for doc in (first, second)] == names


# ---------------------------------------------------------------------------
# Exit codes


def test_exit_codes_on_bad_inputs(capsys, tmp_path):
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("kind,predictor,duration_s,observed\nenergy,1,1,1\nbogus,1,1,1\n")
    code, _, err = run(capsys, "fit", "net", str(bad_csv))
    assert code == 2
    assert ":3:" in err

    code, _, err = run(capsys, "fit", "net", str(tmp_path / "missing.csv"))
    assert code == 2

    code, _, err = run(capsys, "train", "--dataset", str(tmp_path / "none.jsonl"),
                       "--params-out", str(tmp_path / "p.json"))
    assert code == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    code, _, err = run(capsys, "eval", "--dataset", str(tmp_path / "none.jsonl"),
                       "--params", str(broken))
    assert code == 2

    code, _, err = run(capsys, "embodied", "--bom", str(broken))
    assert code == 2

    code, _, err = run(capsys, "estimate", "--config", "no-such-model",
                       "--prompt-len", "10", "--output-len", "1")
    assert code == 2
    assert "no-such-model" in err

    code, _, err = run(capsys, "breakeven", "--delta-embodied", "1.0",
                       "--delta-energy", "-5")
    assert code == 2

    code, _, err = run(capsys, "breakeven", "--delta-embodied", "1.0",
                       "--delta-energy", "100", "--region", "mars")
    assert code == 2
    assert "mars" in err


def _nan_blob(doc):
    flat = np.frombuffer(base64.b64decode(doc["prefill"]), dtype="<f8").copy()
    flat[5] = np.nan
    return base64.b64encode(flat.tobytes()).decode()


def _version_1(doc):
    """The retired text layout: every array as nested decimal lists."""
    params = params_from_json(doc)
    return {
        **{k: doc[k] for k in ("format", "hidden_dim", "num_rounds", "meta")},
        "version": 1,
        **{name: {k: v.tolist() for k, v in getattr(params, name).arrays().items()}
           for name in ("prefill", "total")},
        "norms": {k: v.tolist() for k, v in vars(params.norms).items()},
    }


_BAD_PARAMS = {
    "truncated blob": lambda d: {**d, "total": d["total"][:-8]},
    "bad base64": lambda d: {**d, "prefill": "*" + d["prefill"][1:]},
    "nan weight": lambda d: {**d, "prefill": _nan_blob(d)},
    "version 1": _version_1,
    "wrong hidden_dim": lambda d: {**d, "hidden_dim": 3},
    "list meta": lambda d: {**d, "meta": [1, 2]},
    "float seed": lambda d: {**d, "meta": {**d["meta"], "seed": 1.7}},
}


@pytest.mark.parametrize("mutate", list(_BAD_PARAMS.values()), ids=list(_BAD_PARAMS))
def test_malformed_params_file_exits_2(capsys, tmp_path, workdir, mutate):
    doc = mutate(json.loads((workdir / "params.json").read_text()))
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))  # a NaN stays inside its blob
    for argv in (
        ("eval", "--dataset", workdir / "tiny.jsonl", "--params", path),
        ("pipeline", "--params", path),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), (argv[0], err)
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: "), err


def test_json_nested_deeper_than_the_recursion_limit_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * (sys.getrecursionlimit() * 20))
    for argv, where in (
        (("estimate", "--device", path, *_REQUEST), f"error: cannot read device spec {path}: "),
        (("train", "--dataset", path, "--params-out", tmp_path / "params.json"),
         f"error: {path}:1: invalid JSON: "),
    ):
        code, out, err = run(capsys, *argv)
        assert_one_error_line(code, out, err)
        assert err.startswith(where) and "recursion" in err, err


def test_fit_unknown_model_exits_2_before_reading_the_csv(capsys, tmp_path):
    code, out, err = run(capsys, "fit", "nope", str(tmp_path / "missing.csv"))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "'nope'" in err and "missing.csv" not in err
    assert all(repr(name) in err for name in dm.MODEL_NAMES)


def test_requests_beyond_dram_exit_2(capsys, tmp_path, workdir):
    request = ("--prompt-len", "100", "--output-len", "40000",
               "--device", "rk3568", "--config", "internlm2-18b")
    for argv in (
        ("estimate", *request),
        ("roofline", *request),
        ("whatif", "--scenario", "rk-npu", "--config", "internlm2-18b",
         "--prompt-lens", "100,200000"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "DRAM" in err, argv

    doc = json.loads((assets.asset_root() / "pipelines" / "voice_assistant.json").read_text())
    doc["llm"].update(config="internlm2-18b", device="rk3568", output_len=40000)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    for extra in ((), ("--params", str(workdir / "params.json"))):
        code, out, err = run(capsys, "pipeline", "--pipeline", str(path), *extra)
        assert (code, out) == (2, "")
        assert "DRAM" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_float_arguments_exit_2(capsys, value):
    for argv in (
        ("breakeven", f"--delta-embodied={value}", "--delta-energy", "120"),
        ("breakeven", "--delta-embodied", "1.0", f"--delta-energy={value}"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "finite" in captured.err


# Per subcommand: its required arguments, every other flag set once, and
# argv that argparse refuses (a non-integer, a bad choice, a non-finite float)
_PARSE_TABLE = {
    "fit": (["speaker", "s.csv"], [], ["--seed", "1.5"]),
    "estimate": (["--prompt-len", "8", "--output-len", "4"],
                 ["--config", "c", "--device", "d", "--breakdown"],
                 ["--prompt-len", "8.5", "--output-len", "4"]),
    "dataset": (["--n", "5", "--dataset-out", "d.jsonl"],
                ["--configs", "a,b", "--devices", "x", "--sigma", "0.1", "--regime", "mixed"],
                ["--n", "five", "--dataset-out", "d.jsonl", "--sigma", "nan"]),
    "train": (["--dataset", "d.jsonl", "--params-out", "p.json"],
              ["--epochs", "3", "--lr", "0.01", "--batch-size", "4", "--train-frac", "0.7",
               "--val-frac", "0.2", "--history-out", "h.jsonl"],
              ["--dataset", "d", "--params-out", "p", "--lr", "inf"]),
    "eval": (["--dataset", "d.jsonl", "--params", "p.json"],
             ["--compare-baselines", "--baseline-epochs", "2"],
             ["--dataset", "d", "--params", "p", "--baseline-epochs", "2.0"]),
    "embodied": (["--bom", "b"], ["--llm-components", "dram"], ["--bom", "b", "--format", "xml"]),
    "whatif": (["--scenario", "rk-mem"],
               ["--bom", "b", "--device", "d", "--config", "c", "--prompt-lens", "5,6"],
               ["--scenario", "rk-gpu"]),
    "breakeven": (["--delta-embodied", "1", "--delta-energy", "2"],
                  ["--region", "r", "--ci-table", "t.json", "--lifespan", "3"],
                  ["--delta-embodied", "1", "--delta-energy", "-inf"]),
    "roofline": ([], ["--device", "d", "--config", "c", "--prompt-len", "3", "--output-len", "2"],
                 ["--prompt-len", "x"]),
    "pipeline": ([], ["--pipeline", "p", "--input", "camera", "--output", "speaker",
                      "--params", "p.json", "--requests-per-day", "10", "--bom", "b",
                      "--region", "r", "--ci-table", "t", "--lifespan", "4"],
                 ["--input", "radio", "--requests-per-day", "NaN"]),
}


def _parse_cases() -> list[list[str]]:
    """Per subcommand: the defaults, every flag set once (with --seed, which
    only dataset, train and eval take, and without it), help, a missing
    required argument, the refused values, a bad --format, unknown flags and
    stray positionals; then argv that names no subcommand first."""
    cases = [[], ["-h"], ["bogus"], ["--seed", "1", "estimate"]]
    for command, (required, flags, refused) in _PARSE_TABLE.items():
        cases += [
            [command, *required],
            [command, *required, *flags, "--seed", "7", "--format", "csv", "--out", "o.txt"],
            [command, *required, *flags, "--format", "csv", "--out", "o.txt"],
            [command, "-h"],
            [command, *required, "--help", "--bogus"],
            [command, *required[2:]],
            [command, *refused],
            [command, *required, "--format", "yaml"],
            [command, *required, "--bogus"],
            [command, *required, "--bogus=1", "stray", "-x"],
            [command, *required, "stray"],
        ]
    return cases


def _parse_outcome(capsys, parse, argv):
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, capsys.readouterr()


@pytest.mark.parametrize("argv", _parse_cases(), ids=" ".join)
def test_parse_equals_the_full_parser(capsys, argv):
    """`main`'s parse step exits, prints and returns as the full parser does,
    less the `command` that no handler reads."""
    got, got_io = _parse_outcome(capsys, cli._parse, list(argv))
    want, want_io = _parse_outcome(capsys, cli.build_parser().parse_args, list(argv))
    assert got_io == want_io
    if isinstance(want, tuple):
        assert got == want
    else:
        assert vars(got) == {k: v for k, v in vars(want).items() if k != "command"}


_SEEDED = ("dataset", "train", "eval")  # the subcommands that read --seed


@pytest.mark.parametrize("command", [c for c in _PARSE_TABLE if c not in _SEEDED])
def test_seed_is_refused_where_no_subcommand_reads_it(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *_PARSE_TABLE[command][0], "--seed", "1"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert [line for line in err.splitlines() if "error:" in line] == [
        "co2meter: error: unrecognized arguments: --seed 1"
    ]


@pytest.mark.parametrize("command", _SEEDED)
def test_seed_defaults_to_42_where_it_is_read(command):
    args = cli._parse([command, *_PARSE_TABLE[command][0]])
    assert args.seed == 42
    assert cli._parse([command, *_PARSE_TABLE[command][0], "--seed", "7"]).seed == 7


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "embodied, energy",
    [("1", "1e-320"), ("1e308", "1e-308")],
    ids=["saving rounds to zero", "rate overflows"],
)
def test_breakeven_without_a_finite_rate_exits_2(capsys, embodied, energy, fmt):
    code, out, err = run(capsys, "breakeven", "--delta-embodied", embodied,
                         "--delta-energy", energy, "--format", fmt)
    assert (code, out) == (2, ""), err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


_REQUEST = ("--prompt-len", "64", "--output-len", "8")
_ESTIMATE = ("estimate", *_REQUEST, "--device")
_BREAKEVEN = ("breakeven", "--delta-embodied", "1.0", "--delta-energy", "100", "--ci-table")
_PIPELINE = ("pipeline", "--format", "csv", "--pipeline")
_PIPELINE_NUMBERS = [("total_duration_s",), ("input", "duration_s"), ("input", "samples"),
                     ("input", "frames"), ("conversion", "energy_j"), ("output", "duration_s"),
                     ("output", "grey"), ("output", "pixels"), ("output", "volume")]
# (asset, path to the field, argv): every number field of a device spec, a
# BOM's top level, the carbon-intensity table and a pipeline
_NON_FINITE_FIELDS = [
    *[("devices/rk3588.json", (field,), _ESTIMATE) for field in (
        "peak_ops", "mem_bandwidth", "idle_power", "active_power", "dram_capacity")],
    *[("boms/rk3588.json", (field,), ("embodied", "--bom")) for field in (
        "die_area_cm2", "cpa_die_kg_per_cm2", "pcb_area_cm2", "cpa_pcb_kg_per_cm2",
        "dram_kg")],
    ("ci_table.json", ("india",), _BREAKEVEN),
    *[("pipelines/voice_assistant.json", path, _PIPELINE) for path in _PIPELINE_NUMBERS],
]
# What a field's path needs that the bundled asset lacks: a camera input, a
# speaker output, a BOM peripheral
_ADDED = {
    ("input", "frames"): {"kind": "camera", "duration_s": 2.0, "frames": 3},
    ("output", "volume"): {"kind": "speaker", "duration_s": 480.0, "volume": 60.0},
    ("peripherals", 0, 1): [["camera", 0.5]],
}


def _spec_file(tmp_path, asset, path, value):
    """A copy of the bundled asset with the field at path set to value (the
    whole document when path is empty), written to tmp_path."""
    doc = json.loads((assets.asset_root() / asset).read_text())
    if path in _ADDED:
        doc[path[0]] = copy.deepcopy(_ADDED[path])
    if path:
        _set(*path, value=value)(doc)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc if path else value))  # NaN / Infinity as tokens
    return spec


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400],
                         ids=["nan", "inf", "beyond float"])
@pytest.mark.parametrize("asset, path, argv", _NON_FINITE_FIELDS,
                         ids=[".".join(p) for _, p, _ in _NON_FINITE_FIELDS])
def test_non_finite_spec_fields_exit_2(capsys, tmp_path, asset, path, argv, value, fmt):
    spec = _spec_file(tmp_path, asset, path, value)
    code, out, err = run(capsys, *argv, spec, "--format", fmt)
    assert_one_error_line(code, out, err)
    assert f" {'.'.join(path)} {value!r} is not a finite number" in err, err


# (asset, path to the field, argv, value, the error's end): every number field
# above and in a BOM's units and peripherals as a bool, the carbon-intensity
# and pipeline ones as a string too, names that are no non-empty string, and a
# carbon-intensity table that is no JSON object
_BOOLEAN_FIELDS = [
    *[(asset, path, argv, True, f"{'.'.join(path)} True is not a number")
      for asset, path, argv in _NON_FINITE_FIELDS],
    ("boms/rk3588.json", ("units", 0, "area_fraction"), ("embodied", "--bom"), True,
     "npu area_fraction True is not a number"),
    ("boms/rk3588.json", ("peripherals", 0, 1), ("embodied", "--bom"), True,
     "peripheral camera kg True is not a number"),
    *[(asset, path, argv, "0.7", f"{'.'.join(path)} '0.7' is not a number")
      for asset, path, argv in _NON_FINITE_FIELDS if asset.startswith(("ci", "pipelines"))],
    ("ci_table.json", (), _BREAKEVEN, [1, 2], "document is not a JSON object"),
    ("devices/rk3588.json", ("name",), _ESTIMATE, 5, "name 5 is not a non-empty string"),
    ("llm_configs/qwen15-05b.json", ("name",), ("estimate", *_REQUEST, "--config"), None,
     "name None is not a non-empty string"),
    ("boms/rk3588.json", ("name",), ("embodied", "--bom"), None,
     "name None is not a non-empty string"),
    ("boms/rk3588.json", ("units", 0, "name"), ("embodied", "--bom"), 5,
     "unit name 5 is not a non-empty string"),
    ("pipelines/voice_assistant.json", ("name",), _PIPELINE, "",
     "name '' is not a non-empty string"),
]


def _field_id(asset, path, value):
    field = ".".join(map(str, path))
    return field if value is True else f"{asset.split('/')[0]}:{field or 'document'}={value!r}"


@pytest.mark.parametrize("asset, path, argv, value, tail", _BOOLEAN_FIELDS,
                         ids=[_field_id(a, p, v) for a, p, _, v, _ in _BOOLEAN_FIELDS])
def test_boolean_spec_fields_exit_2_naming_the_field(capsys, tmp_path, asset, path, argv, value,
                                                      tail):
    code, out, err = run(capsys, *argv, _spec_file(tmp_path, asset, path, value))
    assert_one_error_line(code, out, err)
    assert err.endswith(f" {tail}\n"), err


def _set(*path, value):
    def mutate(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return mutate


def _drop(key):
    return lambda doc: doc.pop(key)


_HUGE = 10**400
# Each malformed field of a format-3 line, with what the error names.
_BAD_SAMPLES = {
    f"label_total_j-{value}": (_set("label_total_j", value=value),
                               f"label_total_j {value} is not a finite number")
    for value in (float("nan"), float("inf"))
}
# labels that float() would accept
_BAD_SAMPLES.update({
    f"{key}-{value!r}": (_set(key, value=value), f"{key} {value!r} is not a number")
    for key in ("label_prefill_j", "label_total_j")
    for value in ("5.0", True)
})
_BAD_SAMPLES.update({
    "zero label": (_set("label_prefill_j", value=0),
                   "label_prefill_j must be finite and positive, got 0"),
    "prefill above total": (_set("label_prefill_j", value=1e9),
                            "labels must satisfy prefill <= total"),
    # lengths that int() would truncate, or that make no request
    "fractional prompt_len": (_set("prompt_len", value=122.9),
                              "prompt_len 122.9 is not an integer"),
    "bool output_len": (_set("output_len", value=True), "output_len True is not an integer"),
    "zero prompt_len": (_set("prompt_len", value=0), "prompt_len and output_len must be >= 1"),
    "negative output_len": (_set("output_len", value=-3),
                            "prompt_len and output_len must be >= 1"),
    "missing key": (_drop("label_total_j"), "missing ['label_total_j'], unexpected []"),
    "extra key": (_set("device_id", value="rk3588"), "missing [], unexpected ['device_id']"),
    "device-None": (_set("device", value=None), "device is not a JSON object"),
    "empty config name": (_set("config", value=""), "no bundled llm_configs asset ''"),
    "unknown config": (_set("config", value="gpt-x"), "no bundled llm_configs asset 'gpt-x'"),
    "unknown device": (_set("device", value="pi5"), "no bundled devices asset 'pi5'"),
    "missing config file": (_set("config", value="nope.json"), "cannot read llm config"),
    "bool num_layers": (_set("config", "num_layers", value=True),
                        "num_layers True is not an integer"),
    "config without num_heads": (lambda doc: doc["config"].pop("num_heads"),
                                 "malformed llm config: config is missing 'num_heads'"),
    "device peak_ops-nan": (_set("device", "peak_ops", value=float("nan")),
                            "peak_ops nan is not a finite number"),
    "device idle_power-'5.0'": (_set("device", "idle_power", value="5.0"),
                                "idle_power '5.0' is not a number"),
    # requests whose weights and K/V cache no board holds, however large the integer
    "overflows DRAM": (_set("prompt_len", value=10**6), "bytes of DRAM on rk3588"),
    "num_layers beyond float": (_set("config", "num_layers", value=_HUGE),
                                "bytes of DRAM on rk3588"),
    "missing version": (_drop("version"), "no version (format 1)"),
    "version 1": (_set("version", value=1), "version 1, expected version 3"),
    "version 2": (_set("version", value=2), "version 2, expected version 3"),
    "float version": (_set("version", value=3.0), "version 3.0, expected version 3"),
})


@pytest.mark.parametrize("mutate, named", list(_BAD_SAMPLES.values()), ids=list(_BAD_SAMPLES))
def test_bad_sample_exits_2_with_its_location(capsys, tmp_path, workdir, mutate, named):
    lines = (workdir / "tiny.jsonl").read_text().splitlines()
    doc = json.loads(lines[4])
    mutate(doc)
    lines[4] = json.dumps(doc)  # non-finite values as NaN / Infinity tokens
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    for argv in (
        ("train", "--dataset", path, "--params-out", tmp_path / "params.json"),
        ("eval", "--dataset", path, "--params", workdir / "params.json"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}:5: "), err
        assert named in err, err


_LONG_INT = "9" * 5000  # past the digits Python converts to an int by default


def test_integer_too_long_to_convert_exits_2_with_its_location(capsys, tmp_path, workdir):
    """json.loads refuses such an integer with a ValueError that is no
    JSONDecodeError; the readers still name the dataset line or the file."""
    lines = (workdir / "tiny.jsonl").read_text().splitlines()
    lines[1] = re.sub(r'"label_total_j": [^,}]+', f'"label_total_j": {_LONG_INT}', lines[1])
    dataset = tmp_path / "long.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "train", "--dataset", dataset, "--params-out", tmp_path / "p.json")
    assert_one_error_line(code, out, err)
    assert err.startswith(f"error: {dataset}:2: invalid JSON: Exceeds the limit"), err

    text = (assets.asset_root() / "devices" / "rk3588.json").read_text()
    spec = tmp_path / "device.json"
    spec.write_text(re.sub(r'"peak_ops": [^,}]+', f'"peak_ops": {_LONG_INT}', text))
    code, out, err = run(capsys, *_ESTIMATE, spec)
    assert_one_error_line(code, out, err)
    assert err.startswith(f"error: cannot read device spec {spec}: Exceeds the limit"), err


def _as_format_2(sample):
    """A sample as format 2 wrote it: the predictor's inputs, two graphs of
    12 rows and two global-feature objects, in place of the measurement."""
    return {
        "version": 2,
        "device_id": sample.device_id,
        **{name: {"phase": graph.phase, "rows": [list(row) for row in graph.rows]}
           for name, graph in (("prefill_graph", sample.prefill_graph),
                               ("decode_graph", sample.decode_graph))},
        **{name: {f: getattr(gf, f) for f in gf._fields if f != "prefill_energy_j"}
           for name, gf in (("prefill_globals", sample.prefill_globals),
                            ("total_globals", sample.total_globals))},
        "label_prefill_j": sample.label_prefill_j,
        "label_total_j": sample.label_total_j,
    }


def _as_format_1(doc):
    """A format-2 line as format 1 wrote it: 12 keyed node dicts and the 13
    layer edges per graph, no version."""
    doc = dict(doc)
    del doc["version"]
    for name in ("prefill_graph", "decode_graph"):
        graph = doc[name]
        doc[name] = {
            "phase": graph["phase"],
            "nodes": [dict(zip(("kind", *ROW_FIELDS), (kind, *row)))
                      for kind, row in zip(LAYER_KINDS, graph["rows"])],
            "edges": [list(edge) for edge in _LAYER_EDGES],
        }
    return doc


def test_format_1_dataset_exits_2_with_a_hint_to_regenerate(capsys, tmp_path, workdir):
    """Format 1 and format 2 files, which held the predictor's inputs rather
    than the measurement, are refused with a hint to regenerate them."""
    format_2 = [_as_format_2(s) for s in read_dataset_jsonl(workdir / "tiny.jsonl")]
    for name, docs in (("v1", [_as_format_1(doc) for doc in format_2]), ("v2", format_2)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs))
        for argv in (
            ("train", "--dataset", path, "--params-out", tmp_path / "params.json"),
            ("eval", "--dataset", path, "--params", workdir / "params.json"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), err
            assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}:1: "), err
            assert "re-run `co2meter dataset`" in err, err


def test_hand_written_lines_name_their_config_and_device(capsys, tmp_path, monkeypatch):
    """A measurement line may name its config and device as a bundled asset
    or a path, read against the dataset file's directory whatever the working
    directory, and such a set trains."""
    sub = tmp_path / "sub"
    (sub / "boards").mkdir(parents=True)
    shutil.copy(assets.asset_root() / "llm_configs" / "tinyllama-11b.json", sub / "tiny.json")
    shutil.copy(assets.asset_root() / "devices" / "orin_nx.json", sub / "boards" / "nx.json")
    picks = (("qwen15-05b", "rk3588"), ("tiny.json", "boards/nx.json"),
             ("qwen15-05b", "boards/nx.json"), ("tiny.json", "rk3588"))
    lines, want = [], []
    for i in range(12):
        config, device = picks[i % len(picks)]
        cfg, dev = assets.load_llm_config(config, str(sub)), assets.load_device(device, str(sub))
        req = Request(32 + 8 * i, 16 + 4 * i)
        prefill_j, decode_j = request_energy(cfg, req, dev)
        lines.append(json.dumps({"version": 3, "config": config, "device": device,
                                 "prompt_len": req.prompt_len, "output_len": req.output_len,
                                 "label_prefill_j": prefill_j,
                                 "label_total_j": prefill_j + decode_j}))
        want.append(measured_sample(cfg, req, dev, prefill_j, prefill_j + decode_j))
    (sub / "data.jsonl").write_text("\n".join(lines) + "\n")
    assert {s.config.name for s in want} == {"qwen1.5-0.5b", "tinyllama-1.1b"}
    assert {s.device_id for s in want} == {"rk3588", "orin_nx"}

    monkeypatch.chdir(tmp_path)
    assert read_dataset_jsonl(Path("sub") / "data.jsonl") == want
    doc = run_json(capsys, "train", "--dataset", Path("sub") / "data.jsonl",
                   "--params-out", "params.json", "--epochs", "2")
    assert doc["train"]["total"]["n"] == 10
    monkeypatch.chdir(sub)
    assert read_dataset_jsonl("data.jsonl") == want


@pytest.mark.parametrize("argv", [
    ("train", "--dataset", "BAD", "--params-out", "p.json"),
    ("fit", "net", "BAD"),
], ids=["dataset", "samples csv"])
def test_input_that_is_not_utf8_exits_2_naming_its_path(capsys, tmp_path, argv):
    bad = tmp_path / "bad.input"
    bad.write_bytes(b"\xff" + b"kind,predictor,duration_s,observed\n")
    code, out, err = run(capsys, *(bad if a == "BAD" else tmp_path / a if a == "p.json" else a
                                   for a in argv))
    assert_one_error_line(code, out, err)
    assert str(bad) in err, err
    reader = read_dataset_jsonl if argv[0] == "train" else dm.load_samples_csv
    with pytest.raises(UserInputError, match=re.escape(str(bad))):
        reader(bad)


@pytest.mark.parametrize("asset, path, value, argv", [
    ("llm_configs/qwen15-05b.json", ("num_layers",), 24.5, ("estimate", *_REQUEST, "--config")),
    ("llm_configs/qwen15-05b.json", ("weight_bytes",), True, ("estimate", *_REQUEST, "--config")),
    ("pipelines/voice_assistant.json", ("llm", "prompt_len"), 1500.9, ("pipeline", "--pipeline")),
    ("pipelines/voice_assistant.json", ("llm", "output_len"), True, ("pipeline", "--pipeline")),
], ids=["config num_layers", "config weight_bytes", "pipeline prompt_len", "pipeline output_len"])
def test_non_integer_json_fields_exit_2(capsys, tmp_path, asset, path, value, argv):
    code, out, err = run(capsys, *argv, _spec_file(tmp_path, asset, path, value))
    assert (code, out) == (2, ""), err
    assert len(err.splitlines()) == 1 and "is not an integer" in err, err


@pytest.mark.parametrize("epochs", ["0", "-1"])
def test_eval_non_positive_baseline_epochs_exit_2(capsys, workdir, epochs):
    code, out, err = run(capsys, "eval", "--dataset", workdir / "tiny.jsonl",
                         "--params", workdir / "params.json", "--compare-baselines",
                         "--baseline-epochs", epochs)
    assert (code, out) == (2, ""), err
    assert err.startswith("error:") and "epochs" in err, err


def test_eval_baseline_epochs_without_compare_baselines_exits_2(capsys, workdir):
    code, out, err = run(capsys, "eval", "--dataset", workdir / "tiny.jsonl",
                         "--params", workdir / "params.json", "--baseline-epochs", "5")
    assert_one_error_line(code, out, err)
    assert err == "error: --baseline-epochs applies only with --compare-baselines\n"


def test_train_and_eval_featurize_each_graph_once(capsys, tmp_path, workdir, monkeypatch):
    from co2meter.predictor import training

    featurized = []
    node_feature_tensor = training.node_feature_tensor

    def counting(graphs):
        featurized.append(len(graphs))
        return node_feature_tensor(graphs)

    monkeypatch.setattr(training, "node_feature_tensor", counting)
    dataset = workdir / "tiny.jsonl"
    n_graphs = 2 * len(read_dataset_jsonl(dataset))
    for argv in (
        ("train", "--dataset", dataset, "--params-out", tmp_path / "params.json",
         "--epochs", "1"),
        ("eval", "--dataset", dataset, "--params", workdir / "params.json",
         "--compare-baselines", "--baseline-epochs", "1"),
    ):
        featurized.clear()
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert sum(featurized) == n_graphs, argv


def test_compare_baselines_with_empty_test_split_exits_2(capsys, tmp_path, workdir):
    params = tmp_path / "params.json"
    assert cli.main([
        "train", "--dataset", str(workdir / "tiny.jsonl"), "--params-out", str(params),
        "--epochs", "1", "--train-frac", "0.9", "--val-frac", "0.1",
        "--out", str(tmp_path / "metrics.json"),
    ]) == 0
    code, out, err = run(capsys, "eval", "--dataset", str(workdir / "tiny.jsonl"),
                         "--params", str(params), "--compare-baselines")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "test split" in err


def test_train_on_every_sample_reports_only_the_train_split(capsys, tmp_path, workdir):
    params = tmp_path / "params.json"
    doc = run_json(capsys, "train", "--dataset", workdir / "tiny.jsonl",
                   "--params-out", params, "--epochs", "1",
                   "--train-frac", "1", "--val-frac", "0")
    assert list(doc) == ["train"] and doc["train"]["total"]["n"] == 12
    code, out, err = run(capsys, "eval", "--dataset", workdir / "tiny.jsonl",
                         "--params", params, "--compare-baselines")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "non-empty test split" in err
