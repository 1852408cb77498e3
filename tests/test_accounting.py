"""Operational carbon, break-even analysis, and app pipeline accounting."""

import json
import math
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from co2meter import accounting as acc
from co2meter import assets
from co2meter import device_models as dm
from co2meter.errors import ConfigurationError, NoBreakEvenError, UserInputError, replace
from co2meter.workload import LlmConfig, Request, request_energy

GLOBAL_CI = acc.CarbonIntensity("global", 0.48)


# ---------------------------------------------------------------------------
# Operational carbon


def test_one_kwh_at_unit_intensity_is_one_kg():
    assert acc.operational_carbon(3.6e6, acc.CarbonIntensity("unit", 1.0)) == 1.0


def test_operational_carbon_scales_linearly():
    base = acc.operational_carbon(1000.0, GLOBAL_CI)
    assert acc.operational_carbon(3000.0, GLOBAL_CI) == pytest.approx(3 * base)
    assert acc.operational_carbon(0.0, GLOBAL_CI) == 0.0
    with pytest.raises(ValueError):
        acc.operational_carbon(-1.0, GLOBAL_CI)


def test_carbon_intensity_validation():
    with pytest.raises(ValueError):
        acc.CarbonIntensity("zero", 0.0)


# ---------------------------------------------------------------------------
# Break-even


def test_breakeven_matches_direct_arithmetic():
    delta_kg, delta_j, years = 1.26, 150.0, 5.0
    got = acc.breakeven_requests(delta_kg, delta_j, GLOBAL_CI, years)
    per_request_kg = delta_j / 3.6e6 * 0.48
    expected = delta_kg / (per_request_kg * 365.0 * years)
    assert got == pytest.approx(expected, rel=1e-9)


def test_breakeven_orders_bundled_regions():
    table = assets.load_carbon_intensities()
    need = {
        region: acc.breakeven_requests(1.26, 100.0, ci)
        for region, ci in table.items()
    }
    # cleaner grids need more usage to justify the same hardware upgrade
    assert need["france"] > need["global"] > need["india"]


def test_breakeven_requires_positive_savings():
    with pytest.raises(NoBreakEvenError):
        acc.breakeven_requests(1.26, 0.0, GLOBAL_CI)
    # a saving that rounds to zero carbon, and one whose rate overflows
    for embodied, energy in ((1.0, 1e-320), (1e308, 1e-308)):
        with pytest.raises(NoBreakEvenError, match="not finite"):
            acc.breakeven_requests(embodied, energy, GLOBAL_CI)
    with pytest.raises(NoBreakEvenError):
        acc.breakeven_requests(1.26, -5.0, GLOBAL_CI)
    with pytest.raises(ValueError):
        acc.breakeven_requests(0.0, 10.0, GLOBAL_CI)
    with pytest.raises(ValueError):
        acc.breakeven_requests(1.0, 10.0, GLOBAL_CI, lifespan_years=0.0)


@given(
    delta_kg=st.floats(1e-3, 100.0),
    delta_j=st.floats(1e-3, 1e6),
    ci=st.floats(1e-3, 2.0),
    factor=st.floats(1.1, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_breakeven_monotonicity(delta_kg, delta_j, ci, factor):
    intensity = acc.CarbonIntensity("x", ci)
    base = acc.breakeven_requests(delta_kg, delta_j, intensity)
    # more embodied carbon to pay off -> more requests
    assert acc.breakeven_requests(delta_kg * factor, delta_j, intensity) > base
    # bigger per-request savings -> fewer requests
    assert acc.breakeven_requests(delta_kg, delta_j * factor, intensity) < base
    # dirtier grid -> savings worth more -> fewer requests
    dirtier = acc.CarbonIntensity("y", ci * factor)
    assert acc.breakeven_requests(delta_kg, delta_j, dirtier) < base


def test_breakeven_closure():
    """At the break-even rate the two variants' lifetime footprints agree."""
    delta_kg, delta_j, years = 1.6338, 120.0, 5.0
    base_embodied = 4.5765
    energy_a = 200.0
    rate = acc.breakeven_requests(delta_kg, delta_j, GLOBAL_CI, years)
    usage = acc.UsageProfile(requests_per_day=rate, lifespan_years=years)
    a = acc.total_footprint(base_embodied, usage, energy_a, GLOBAL_CI)
    b = acc.total_footprint(
        base_embodied + delta_kg, usage, energy_a - delta_j, GLOBAL_CI
    )
    assert a.total_kg == pytest.approx(b.total_kg, rel=1e-6)


@pytest.mark.parametrize("usage", [acc.UsageProfile(1e306), acc.UsageProfile(1.0, 1e306)],
                         ids=["requests_per_day", "lifespan_years"])
@pytest.mark.parametrize("energy", [2.0, 0.0])
def test_total_footprint_that_overflows_names_the_usage(usage, energy):
    with pytest.raises(ValueError) as exc:
        acc.total_footprint(1.0, usage, energy, GLOBAL_CI)
    assert str(exc.value) == (
        f"lifetime energy is not finite: {energy} J per request at requests_per_day "
        f"{usage.requests_per_day} over lifespan_years {usage.lifespan_years}")


@pytest.mark.parametrize("embodied, energy, kg_per_kwh",
                         [(1.0, 2000.0, 1e308), (1.7e308, 2.0e5, 1e303)],
                         ids=["operational", "embodied-plus-operational"])
def test_total_footprint_whose_carbon_overflows_names_the_region(embodied, energy, kg_per_kwh):
    """A finite lifetime energy can still overflow through the carbon
    intensity, or the sum with the embodied carbon can."""
    usage = acc.UsageProfile(1000.0)
    lifetime_j = energy * (usage.requests_per_day * acc.DAYS_PER_YEAR * usage.lifespan_years)
    with pytest.raises(ValueError) as exc:
        acc.total_footprint(embodied, usage, energy, acc.CarbonIntensity("x", kg_per_kwh))
    assert str(exc.value) == (f"lifetime carbon is not finite: {embodied} kg embodied plus "
                              f"{lifetime_j} J in region 'x' at {kg_per_kwh} kg/kWh")


def test_total_footprint_arithmetic():
    usage = acc.UsageProfile(requests_per_day=100.0, lifespan_years=5.0)
    report = acc.total_footprint(4.5765, usage, 1000.0, GLOBAL_CI)
    lifetime_j = 1000.0 * 100.0 * 365.0 * 5.0
    assert report.embodied_kg == 4.5765
    assert report.operational_kg == pytest.approx(lifetime_j / 3.6e6 * 0.48, rel=1e-12)
    assert report.total_kg == pytest.approx(
        report.embodied_kg + report.operational_kg, rel=1e-12
    )


# ---------------------------------------------------------------------------
# App pipeline accounting


def _models():
    return {
        "mic": dm.LinearRateModel(0.02, 3e-6),
        "camera": dm.LinearRateModel(1.0, 0.05),
        "display": dm.DisplayPowerModel(4.0, -0.012, 2e-5),
        "video": dm.VideoPowerModel(0.2, 1e-8),
        "speaker": dm.SpeakerPowerModel(-0.05, 0.2),
    }


def _pipeline():
    return assets.load_demo_pipeline("voice_assistant")


def _oracle(stage):
    return sum(request_energy(stage.config, stage.request, stage.device))


def test_breakdown_stage_arithmetic():
    pipe = _pipeline()
    breakdown = acc.app_energy(pipe, _models(), _oracle)
    assert set(breakdown.stages) == set(acc.BREAKDOWN_KEYS)
    # mic: 0.02 W for 420 s plus 3e-6 J for each of 6.72M samples
    assert breakdown.stages["input"] == pytest.approx(0.02 * 420 + 3e-6 * 6.72e6)
    assert breakdown.stages["con"] == 12.0
    # display panel at grey 128 plus the video pipeline moving 384k pixels
    panel_w = 4.0 - 0.012 * 128 + 2e-5 * 128 * 128
    video_w = 0.2 + 1e-8 * 384000
    assert breakdown.stages["output"] == pytest.approx((panel_w + video_w) * 480.0)
    # background: device idle power over the whole interaction
    assert breakdown.stages["sys"] == pytest.approx(0.8 * 480.0)
    assert breakdown.total_j == pytest.approx(sum(breakdown.stages.values()))


def test_missing_model_raises_configuration_error():
    models = _models()
    del models["display"]
    with pytest.raises(ConfigurationError):
        acc.app_energy(_pipeline(), models, _oracle)


def test_llm_energy_must_be_positive():
    with pytest.raises(ValueError):
        acc.app_energy(_pipeline(), _models(), lambda stage: 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_llm_energy_must_be_finite(value):
    with pytest.raises(ValueError) as exc:
        acc.app_energy(_pipeline(), _models(), lambda stage: value)
    assert str(exc.value) == f"LLM stage energy must be finite and positive, got {value}"


_INPUTS = {"mic": acc.MicInput(420.0, 6.72e6), "camera": acc.CameraInput(2.0, 3.0)}
_OUTPUTS = {"display": acc.DisplayOutput(480.0, 128.0, 384000.0),
            "speaker": acc.SpeakerOutput(480.0, 60.0)}


class _Recording(Mapping):
    """The given models, noting each key read by subscript (not by `in`)."""

    def __init__(self, models):
        self.models, self.read = models, []

    def __getitem__(self, key):
        self.read.append(key)
        return self.models[key]

    def __contains__(self, key):
        return key in self.models

    def __iter__(self):
        return iter(self.models)

    def __len__(self):
        return len(self.models)


@pytest.mark.parametrize("output", sorted(_OUTPUTS))
@pytest.mark.parametrize("input", sorted(_INPUTS))
def test_app_energy_reads_exactly_the_models_its_stages_declare(input, output):
    pipe = replace(_pipeline(), input=_INPUTS[input], output=_OUTPUTS[output])
    models = _Recording(_models())
    acc.app_energy(pipe, models, _oracle)
    assert sorted(models.read) == sorted(acc.required_models(pipe))


def test_stage_kind_table_covers_every_stage_class():
    tables = acc.STAGE_KINDS
    assert set(tables["input"].values()) == {type(x) for x in _INPUTS.values()}
    assert set(tables["output"].values()) == {type(x) for x in _OUTPUTS.values()}
    for classes in tables.values():
        for cls in classes.values():
            assert cls.models and set(cls.models) <= set(dm.MODEL_NAMES)


def test_display_grey_above_the_panel_range_is_refused_when_built():
    acc.DisplayOutput(1.0, float(dm.GREY_MAX), 0.0)
    with pytest.raises(ValueError) as exc:
        acc.DisplayOutput(1.0, 255.5, 0.0)
    assert str(exc.value) == "DisplayOutput.grey must be <= 255, got 255.5"


def test_pipeline_duration_validation():
    pipe = _pipeline()
    with pytest.raises(ValueError):
        replace(pipe, total_duration_s=10.0)


def test_demo_pipeline_output_dominates():
    breakdown = acc.app_energy(_pipeline(), _models(), _oracle)
    assert breakdown.stages["output"] / breakdown.total_j > 0.55


def test_speaker_variant_halves_total():
    pipe = _pipeline()
    breakdown = acc.app_energy(pipe, _models(), _oracle)
    swapped = replace(
        pipe, output=acc.SpeakerOutput(duration_s=480.0, volume=60.0)
    )
    swapped_breakdown = acc.app_energy(swapped, _models(), _oracle)
    assert 1.0 - swapped_breakdown.total_j / breakdown.total_j > 0.50


def test_camera_snapshot_cheaper_than_mic_stream():
    pipe = _pipeline()
    mic_breakdown = acc.app_energy(pipe, _models(), _oracle)
    cam = replace(
        pipe, input=acc.CameraInput(duration_s=2.0, frames=3.0)
    )
    cam_breakdown = acc.app_energy(cam, _models(), _oracle)
    assert cam_breakdown.stages["input"] < mic_breakdown.stages["input"]
    assert cam_breakdown.total_j < mic_breakdown.total_j


def test_breakdown_json_key_order():
    breakdown = acc.app_energy(_pipeline(), _models(), _oracle)
    doc = acc.breakdown_to_json(breakdown)
    assert list(doc) == ["input", "con", "llm", "output", "sys", "total_j"]


# ---------------------------------------------------------------------------
# Pipeline JSON loading


def test_pipeline_from_json_named_references():
    pipe = _pipeline()
    assert isinstance(pipe.input, acc.MicInput)
    assert pipe.llm.config.name == "qwen1.5-0.5b"
    assert pipe.llm.device.name == "rk3588"
    assert pipe.total_duration_s == 480.0


def test_pipeline_from_json_inline_definitions():
    doc = {
        "name": "inline",
        "total_duration_s": 30.0,
        "input": {"kind": "camera", "duration_s": 2.0, "frames": 3},
        "conversion": {"task": "ocr", "energy_j": 15.0},
        "llm": {
            "config": {
                "name": "tiny",
                "num_layers": 2,
                "hidden_dim": 64,
                "num_heads": 4,
                "head_dim": 16,
                "ffn_dim": 128,
                "vocab_size": 100,
                "weight_bytes": 1,
                "act_bytes": 2,
            },
            "device": {
                "name": "dev",
                "peak_ops": 1e12,
                "mem_bandwidth": 10e9,
                "idle_power": 0.5,
                "active_power": 2.0,
                "dram_capacity": 1 << 30,
            },
            "prompt_len": 16,
            "output_len": 4,
        },
        "output": {"kind": "speaker", "duration_s": 10.0, "volume": 50.0},
    }
    pipe = acc.pipeline_from_json(doc)
    assert isinstance(pipe.output, acc.SpeakerOutput)
    assert pipe.llm.request == Request(16, 4)
    assert isinstance(pipe.llm.config, LlmConfig)


def test_pipeline_from_json_rejects_unknown_stage_kind():
    doc = {
        "name": "bad",
        "total_duration_s": 10.0,
        "input": {"kind": "lidar", "duration_s": 1.0, "samples": 10},
        "conversion": {"task": "ocr", "energy_j": 1.0},
        "llm": {"config": "qwen15-05b", "device": "rk3588", "prompt_len": 1, "output_len": 1},
        "output": {"kind": "speaker", "duration_s": 1.0, "volume": 10.0},
    }
    with pytest.raises(UserInputError, match=r"^malformed pipeline: unknown input kind 'lidar'$"):
        acc.pipeline_from_json(doc)


@pytest.mark.parametrize("side, kind", [("output", "hologram"), ("input", ["mic"])])
def test_pipeline_from_json_names_the_unknown_kind(side, kind):
    doc = json.loads((assets.asset_root() / "pipelines" / "voice_assistant.json").read_text())
    doc[side]["kind"] = kind
    with pytest.raises(UserInputError) as exc:
        acc.pipeline_from_json(doc)
    assert str(exc.value) == f"malformed pipeline: unknown {side} kind {kind!r}"


def test_ci_table_round_trip(tmp_path):
    path = tmp_path / "ci.json"
    path.write_text(json.dumps({"a": 0.1, "b": 0.7}))
    table = acc.load_ci_table(path)
    assert table["a"] == acc.CarbonIntensity("a", 0.1)
    assert table["b"].kg_per_kwh == 0.7


def test_bundled_ci_table():
    table = assets.load_carbon_intensities()
    assert table["france"].kg_per_kwh == 0.1
    assert table["global"].kg_per_kwh == 0.48
    assert table["india"].kg_per_kwh == 0.7


def test_usage_profile_validation():
    with pytest.raises(ValueError):
        acc.UsageProfile(requests_per_day=-1.0)
    with pytest.raises(ValueError):
        acc.UsageProfile(requests_per_day=1.0, lifespan_years=0.0)
