"""CLI behavior: determinism, round trips through files, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from co2meter import assets, cli
from co2meter import device_models as dm
from co2meter.accounting import breakeven_requests
from co2meter.predictor import (
    featurize,
    load_params_json,
    predict_sample,
    read_dataset_jsonl,
)
from co2meter.workload import Request
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


def test_fit_in_fresh_interpreter_imports_no_scipy(tmp_path):
    # numpy is the only runtime dependency
    argv = ["fit", "speaker", str(assets.measurement_csv("speaker")),
            "--out", str(tmp_path / "speaker.json")]
    script = (
        "import sys\n"
        "from co2meter import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


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


def test_requests_beyond_dram_exit_2(capsys, tmp_path, workdir):
    code, out, err = run(capsys, "estimate", "--prompt-len", "100", "--output-len",
                         "40000", "--device", "rk3568", "--config", "internlm2-18b")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "DRAM" in err

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
