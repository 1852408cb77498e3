"""Carbon accounting: operational energy -> kgCO2-eq, app pipelines, break-even.

Operational carbon converts joules to kilowatt-hours and scales by a regional
grid carbon intensity.  An application pipeline stitches the peripheral models
and an LLM energy source into a per-request energy breakdown over the stages
input / con / llm / output / sys.  Break-even answers how many requests per
day justify a board with more embodied carbon but lower per-request energy.

Each input and output stage is one class: its fields are the numbers a
pipeline file gives it, `models` names the peripheral models it reads and
`energy(models)` is its formula.  `STAGE_KINDS` maps a pipeline file's
`kind` to the class, so adding a peripheral stage touches nothing else.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import TYPE_CHECKING, Callable, ClassVar, Mapping, Sequence

from .errors import (ConfigurationError, Finite, NoBreakEvenError, NonNegative, Positive, Record,
                     UserInputError, check_range, json_int, json_name, json_number, json_object,
                     read_json)

if TYPE_CHECKING:
    from .device_models import PeripheralModel
    from .workload import DeviceSpec, LlmConfig, Request

JOULES_PER_KWH = 3.6e6
DAYS_PER_YEAR = 365.0
DEFAULT_LIFESPAN_YEARS = 5.0

BREAKDOWN_KEYS = ("input", "con", "llm", "output", "sys")


class CarbonIntensity(Record):
    """Grid carbon intensity in kgCO2-eq per kWh."""

    region: str
    kg_per_kwh: Positive


class UsageProfile(Record):
    requests_per_day: NonNegative
    lifespan_years: Positive = DEFAULT_LIFESPAN_YEARS


def operational_carbon(energy_j: float, ci: CarbonIntensity) -> float:
    """kgCO2-eq of consuming `energy_j` joules on the given grid."""
    check_range(energy_j, "NonNegative", "energy_j")
    return energy_j / JOULES_PER_KWH * ci.kg_per_kwh


# ---------------------------------------------------------------------------
# Application pipeline


class MicInput(Record):
    duration_s: Positive
    samples: NonNegative
    models: ClassVar[tuple[str, ...]] = ("mic",)

    def energy(self, models: Mapping[str, PeripheralModel]) -> float:
        return models["mic"].energy(self.duration_s, self.samples)


class CameraInput(Record):
    duration_s: Positive
    frames: NonNegative
    models: ClassVar[tuple[str, ...]] = ("camera",)

    def energy(self, models: Mapping[str, PeripheralModel]) -> float:
        return models["camera"].energy(self.duration_s, self.frames)


class Conversion(Record):
    task: str
    energy_j: NonNegative

    def __post_init__(self) -> None:
        from .device_models import CONVERSION_TASKS
        if self.task not in CONVERSION_TASKS:
            raise ValueError(f"unknown conversion task {self.task!r}")


class LlmStage(Record):
    config: LlmConfig
    request: Request
    device: DeviceSpec


class DisplayOutput(Record):
    duration_s: Positive
    grey: NonNegative
    pixels: NonNegative
    models: ClassVar[tuple[str, ...]] = ("display", "video")

    def __post_init__(self) -> None:
        from .device_models import GREY_MAX
        if self.grey > GREY_MAX:
            raise ValueError(f"DisplayOutput.grey must be <= {GREY_MAX}, got {self.grey}")

    def energy(self, models: Mapping[str, PeripheralModel]) -> float:
        panel_w = models["display"].power(self.grey)
        return (panel_w + models["video"].power(self.pixels)) * self.duration_s


class SpeakerOutput(Record):
    duration_s: Positive
    volume: Finite
    models: ClassVar[tuple[str, ...]] = ("speaker",)

    def energy(self, models: Mapping[str, PeripheralModel]) -> float:
        return models["speaker"].power(self.volume) * self.duration_s


InputStage = MicInput | CameraInput
OutputStage = DisplayOutput | SpeakerOutput
# A pipeline file's stage `kind` -> its class, per side.
STAGE_KINDS = {
    "input": {"mic": MicInput, "camera": CameraInput},
    "output": {"display": DisplayOutput, "speaker": SpeakerOutput},
}

LlmEnergyFn = Callable[[LlmStage], float]


class AppPipeline(Record):
    """One end-to-end assistant request on a device."""

    name: str
    input: InputStage
    conversion: Conversion
    llm: LlmStage
    output: OutputStage
    total_duration_s: Positive

    def __post_init__(self) -> None:
        longest = max(self.input.duration_s, self.output.duration_s)
        if self.total_duration_s < longest:
            raise ValueError(
                f"total duration {self.total_duration_s} shorter than the "
                f"longest stage ({longest})"
            )


class PipelineBreakdown(Record):
    """Per-stage energy in joules, keyed input/con/llm/output/sys."""

    stages: dict[str, float]
    total_j: float


def required_models(pipeline: AppPipeline) -> tuple[str, ...]:
    """Names of the peripheral models `app_energy` reads for a pipeline."""
    return pipeline.input.models + pipeline.output.models


def app_energy(
    pipeline: AppPipeline,
    models: Mapping[str, PeripheralModel],
    llm_energy: LlmEnergyFn,
) -> PipelineBreakdown:
    """Evaluate every stage of a pipeline into joules.

    `models` maps peripheral names (`required_models(pipeline)`) to fitted
    models; `llm_energy` supplies the inference energy for the LLM stage (a
    trained predictor or the synthetic oracle).
    """
    from .device_models import background_energy
    if llm_energy is None:
        raise ConfigurationError("pipeline needs an LLM energy source")
    for name in required_models(pipeline):
        if name not in models:
            raise ConfigurationError(f"pipeline needs a fitted {name!r} model")

    input_j = pipeline.input.energy(models)
    llm_j = float(llm_energy(pipeline.llm))
    check_range(llm_j, "Positive", "LLM stage energy")
    parts = (input_j, pipeline.conversion.energy_j, llm_j, pipeline.output.energy(models),
             background_energy(pipeline.llm.device.idle_power, pipeline.total_duration_s))
    stages = dict(zip(BREAKDOWN_KEYS, parts))
    return PipelineBreakdown(stages=stages, total_j=sum(stages.values()))


# ---------------------------------------------------------------------------
# Break-even and lifetime footprint


def breakeven_requests(
    delta_embodied_kg: float,
    delta_energy_per_request_j: float,
    ci: CarbonIntensity,
    lifespan_years: float = DEFAULT_LIFESPAN_YEARS,
) -> float:
    """Requests/day at which extra embodied carbon equals operational savings.

    NoBreakEvenError when the saving is not positive or the rate is not a
    finite number (a saving that rounds to zero carbon, or one too small for
    the embodied delta).
    """
    check_range(delta_embodied_kg, "Positive", "delta_embodied_kg")
    check_range(lifespan_years, "Positive", "lifespan_years")
    check_range(delta_energy_per_request_j, "Finite", "delta_energy_per_request_j")
    if delta_energy_per_request_j <= 0:
        raise NoBreakEvenError(
            "per-request energy delta must be positive for a break-even to exist"
        )
    lifetime_saving_kg = (
        operational_carbon(delta_energy_per_request_j, ci) * DAYS_PER_YEAR * lifespan_years
    )
    rate = delta_embodied_kg / lifetime_saving_kg if lifetime_saving_kg > 0 else math.inf
    if not rate < math.inf:
        raise NoBreakEvenError(
            f"a saving of {delta_energy_per_request_j:g} J per request never offsets "
            f"{delta_embodied_kg:g} kg in {ci.region}: the break-even rate is not finite"
        )
    return rate


class FootprintReport(Record):
    embodied_kg: float
    operational_kg: float
    total_kg: float


def total_footprint(
    embodied_kg: float,
    usage: UsageProfile,
    energy_per_request_j: float,
    ci: CarbonIntensity,
) -> FootprintReport:
    """Lifetime footprint: embodied kg plus operational over the usage profile."""
    check_range(embodied_kg, "NonNegative", "embodied_kg")
    check_range(energy_per_request_j, "NonNegative", "energy_per_request_j")
    lifetime_requests = usage.requests_per_day * DAYS_PER_YEAR * usage.lifespan_years
    lifetime_j = energy_per_request_j * lifetime_requests
    if not lifetime_j < math.inf:  # NaN too: 0 J times infinitely many requests
        raise ValueError(f"lifetime energy is not finite: {energy_per_request_j} J per request "
                         f"at requests_per_day {usage.requests_per_day} over lifespan_years "
                         f"{usage.lifespan_years}")
    operational_kg = operational_carbon(lifetime_j, ci)
    total_kg = float(embodied_kg) + operational_kg
    if not total_kg < math.inf:  # operational_kg >= 0, so it is finite when total_kg is
        raise ValueError(f"lifetime carbon is not finite: {embodied_kg} kg embodied plus "
                         f"{lifetime_j} J in region {ci.region!r} at {ci.kg_per_kwh} kg/kWh")
    return FootprintReport(
        embodied_kg=float(embodied_kg), operational_kg=operational_kg, total_kg=total_kg
    )


# ---------------------------------------------------------------------------
# JSON I/O


def load_ci_table(path: str | Path) -> dict[str, CarbonIntensity]:
    """Flat JSON mapping region -> kgCO2-eq per kWh, of at least one region."""
    doc = read_json(path, "carbon-intensity table")
    try:
        if not json_object(doc, "document"):
            raise ValueError("document has no regions")
        return {region: CarbonIntensity(region, float(json_number(value, region)))
                for region, value in doc.items()}
    except ValueError as exc:
        raise UserInputError(f"cannot read carbon-intensity table {path}: {exc}") from exc


def pipeline_from_json(doc: object, base: str = "") -> AppPipeline:
    """Build an AppPipeline from a JSON document.

    The llm stage's `config` and `device` entries are what
    `assets.load_llm_config` and `assets.load_device` read: an inline object,
    a bundled name, or a file path relative to the directory base.
    """
    from .assets import load_device, load_llm_config
    from .workload import Request

    def numbers(block: str, keys: Sequence[str]) -> list[float]:
        entry = json_object(doc[block], block, keys)
        return [float(json_number(entry[key], f"{block}.{key}")) for key in keys]

    def stage(side: str) -> InputStage | OutputStage:
        kind = json_object(doc[side], side, ("kind",))["kind"]
        cls = STAGE_KINDS[side].get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ValueError(f"unknown {side} kind {kind!r}")
        return cls(*numbers(side, cls._fields))

    def llm_stage() -> LlmStage:
        llm = json_object(doc["llm"], "llm", ("config", "prompt_len", "output_len", "device"))
        return LlmStage(
            config=load_llm_config(llm["config"], base),
            request=Request(prompt_len=json_int(llm["prompt_len"], "prompt_len"),
                            output_len=json_int(llm["output_len"], "output_len")),
            device=load_device(llm["device"], base),
        )

    try:  # arguments run in stage order, then name and total, as written
        doc = json_object(doc, "document", ("input", "conversion", "llm", "output",
                                             "total_duration_s"))
        return AppPipeline(
            input=stage("input"),
            conversion=Conversion(json_object(doc["conversion"], "conversion", ("task",))["task"],
                                  *numbers("conversion", ("energy_j",))),
            llm=llm_stage(),
            output=stage("output"),
            name=json_name(doc.get("name", "pipeline"), "name"),
            total_duration_s=float(json_number(doc["total_duration_s"], "total_duration_s")),
        )
    except ValueError as exc:
        raise UserInputError(f"malformed pipeline: {exc}") from exc


def load_pipeline_json(path: str | Path) -> AppPipeline:
    """The pipeline file at path; its relative paths are relative to its directory."""
    return pipeline_from_json(read_json(path, "pipeline"), os.path.dirname(path))


def breakdown_to_json(b: PipelineBreakdown) -> dict:
    return {**b.stages, "total_j": b.total_j}
