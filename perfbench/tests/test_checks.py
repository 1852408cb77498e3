"""Each checker accepts the reference and rejects a slightly wrong output."""

import copy
import json

import pytest

import reference as ref
from checks import Mismatch, check_fit, check_pipeline, check_training, compare
from conftest import BENCH, ROOT
from workloads import cli_cycle

ASSETS = ref.Assets(ROOT / "src" / "co2meter" / "assets")


def scaled(doc, path, factor=1 + 1e-6):
    """Copy of doc with the number at `path` (a tuple of keys) multiplied."""
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] *= factor
    return out


def estimate():
    return ref.estimate_doc(ASSETS.config("internlm2-18b"), ASSETS.device("rk3568"), 300, 700)


@pytest.mark.parametrize("path", [("prefill", "energy_j"), ("decode", "energy_j"),
                                  ("decode", "time_s"), ("total_energy_j",)])
def test_estimate_energy_off_by_a_millionth_is_rejected(path):
    compare(estimate(), estimate())
    with pytest.raises(Mismatch):
        compare(scaled(estimate(), path), estimate())


def test_estimate_wrong_boundedness_or_missing_key_is_rejected():
    doc = estimate()
    doc["prefill"]["boundedness"] = "memory_bound" if doc["prefill"]["boundedness"] != "memory_bound" else "compute_bound"
    with pytest.raises(Mismatch):
        compare(doc, estimate())
    doc = estimate()
    del doc["decode"]["intensity_mid"]
    with pytest.raises(Mismatch):
        compare(doc, estimate())


def test_nan_is_never_equal():
    with pytest.raises(Mismatch):
        compare({"x": float("nan")}, {"x": 1.0})


def fit_doc(model):
    return {"model": model, "params": dict(ASSETS.truth()[model]), "mae": 0.0,
            "max_abs_err": 0.0,
            "n_samples": len(ASSETS.csv(model).read_text().strip().splitlines()) - 1}


@pytest.mark.parametrize("model", ["net", "speaker", "display"])
def test_one_wrong_fit_parameter_is_rejected(model):
    truth, csv = ASSETS.truth(), ASSETS.csv(model)
    check_fit(fit_doc(model), model, truth, csv)
    doc = fit_doc(model)
    first = sorted(doc["params"])[0]
    with pytest.raises(Mismatch):
        check_fit(scaled(doc, ("params", first)), model, truth, csv)
    doc["mae"] = 1e-3
    with pytest.raises(Mismatch):
        check_fit(doc, model, truth, csv)


def test_embodied_breakeven_roofline_whatif_reject_a_perturbed_number():
    cases = [
        (ref.embodied(ASSETS.bom("rk3588")), ("components", "die:npu")),
        (ref.breakeven_doc(1.5, 120.0, ASSETS.ci_table(), 5.0), ("india", "requests_per_day")),
        (ref.roofline_doc(ASSETS.config("qwen15-05b"), ASSETS.device("rk3588"), 100, 64),
         ("roof", 30, "perf")),
        (ref.whatif_doc("rk-npu", ASSETS.bom("rk3588"), ASSETS.device("rk3588"),
                        ASSETS.config("qwen15-05b"), [50, 100]),
         ("prefill_speedup", 1, "speedup")),
    ]
    for doc, path in cases:
        compare(doc, doc)
        with pytest.raises(Mismatch):
            compare(scaled(doc, path), doc)


def test_pipeline_rejects_a_stage_that_breaks_the_sum_or_the_models():
    expected = ref.pipeline_doc(ASSETS, footprint=(100.0, "global", "rk3588", 5.0))
    check_pipeline(expected, expected)
    with pytest.raises(Mismatch, match="sum"):
        check_pipeline(scaled(expected, ("breakdown", "llm")), expected)
    # A wrong stage whose total was patched to match still disagrees with the models.
    wrong = scaled(expected, ("breakdown", "output"))
    wrong["breakdown"]["total_j"] = sum(v for k, v in wrong["breakdown"].items() if k != "total_j")
    with pytest.raises(Mismatch):
        check_pipeline(wrong, expected)


class M:
    def __init__(self, mape):
        self.mape = mape


def test_training_check_wants_falling_loss_and_a_far_better_than_constant_mape():
    history = [{"tower": t, "epoch": e, "train_loss": 1.0 / (e + 1)}
               for t in ("prefill", "total") for e in range(3)]
    baseline = {"prefill": 80.0, "total": 120.0}
    good = {"prefill": M(10.0), "total": M(8.0)}
    check_training(history, good, baseline, 0.5)
    with pytest.raises(Mismatch, match="total head"):
        check_training(history, {"prefill": M(10.0), "total": M(61.0)}, baseline, 0.5)
    rising = [dict(h, train_loss=h["epoch"] + 1.0) if h["tower"] == "prefill" else h
              for h in history]
    with pytest.raises(Mismatch, match="prefill tower"):
        check_training(rising, good, baseline, 0.5)


def test_program_outputs_pass_the_checks(tmp_path):
    """One CLI cycle, in process, checked exactly as the workloads check it."""
    from co2meter import cli

    out = tmp_path / "out.json"
    for op in cli_cycle(7, 0, ASSETS):
        assert cli.main([*op.argv, "--out", str(out)]) == 0
        op.check(json.loads(out.read_text()))


def test_benchmark_json_lists_the_benchmark_metrics():
    from metrics import END_TO_END, PER_LAYER
    from run import WORKLOADS as RUN_CHOICES
    from workloads import WORKLOADS

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS) == list(RUN_CHOICES)
    assert doc["paths"] == [BENCH.name]
