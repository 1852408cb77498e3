"""Embodied carbon of a board from its bill of materials.

A board is modeled as a PCB, a die split into named accelerator units plus an
implicit remainder, a fixed DRAM contribution, and optional fixed-footprint
peripherals.  Area-based components are priced as area * carbon-per-area;
DRAM and peripherals carry fixed kgCO2-eq values.  What-if edits (scaling a
die unit, swapping the DRAM footprint, resizing the PCB) compose left to
right and return new BOMs.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

from .errors import (NonNegative, Positive, Record, UserInputError, check_range, json_list,
                     json_name, json_number, json_object, read_json, replace)

_FRACTION_TOL = 1e-9

DIE_OTHER = "die:other"


class DieUnit(Record):
    """Named block on the die, as a fraction of the total die area."""

    name: str
    area_fraction: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("die unit needs a name")
        if not 0.0 < self.area_fraction <= 1.0:
            raise ValueError("area_fraction must be in (0, 1]")


class SocBom(Record):
    """Bill of materials for one board."""

    name: str
    die_area_cm2: Positive
    cpa_die_kg_per_cm2: Positive
    units: tuple[DieUnit, ...]
    pcb_area_cm2: Positive
    cpa_pcb_kg_per_cm2: Positive
    dram_kg: NonNegative
    peripherals: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        names = [u.name for u in self.units]
        if len(set(names)) != len(names):
            raise ValueError("die unit names must be unique")
        total = sum(u.area_fraction for u in self.units)
        if total > 1.0 + _FRACTION_TOL:
            raise ValueError(f"die unit fractions sum to {total} > 1")
        for name, kg in self.peripherals:
            if not name or not 0 <= kg < math.inf:
                raise ValueError("peripherals need a name and a finite kg >= 0")

    def unit(self, name: str) -> DieUnit:
        for u in self.units:
            if u.name == name:
                return u
        raise UserInputError(f"BOM {self.name!r} has no die unit {name!r}")


class EmbodiedReport(Record):
    """Per-component embodied carbon (kgCO2-eq) and its total."""

    bom_name: str
    per_component: dict[str, float]
    total: float
    llm_fraction: float | None = None


def unit_embodied(area_cm2: float, cpa_kg_per_cm2: float) -> float:
    """Carbon of one area-priced component."""
    check_range(area_cm2, "NonNegative", "area_cm2")
    check_range(cpa_kg_per_cm2, "NonNegative", "cpa_kg_per_cm2")
    return area_cm2 * cpa_kg_per_cm2


def soc_embodied(bom: SocBom, attributable: Iterable[str] | None = None) -> EmbodiedReport:
    """Evaluate a BOM into per-component carbon values.

    Component keys are "pcb", "dram", "die:<unit>" per named unit,
    "die:other" for the remaining die area, and "periph:<name>".  When
    `attributable` component keys are given, the report also carries the
    percentage of the total they account for.
    """
    components: dict[str, float] = {
        "pcb": unit_embodied(bom.pcb_area_cm2, bom.cpa_pcb_kg_per_cm2)
    }
    fraction_used = 0.0
    for u in bom.units:
        components[f"die:{u.name}"] = unit_embodied(
            u.area_fraction * bom.die_area_cm2, bom.cpa_die_kg_per_cm2
        )
        fraction_used += u.area_fraction
    remainder = max(0.0, 1.0 - fraction_used)
    components[DIE_OTHER] = unit_embodied(
        remainder * bom.die_area_cm2, bom.cpa_die_kg_per_cm2
    )
    components["dram"] = bom.dram_kg
    for name, kg in bom.peripherals:
        components[f"periph:{name}"] = kg
    total = sum(components.values())
    report = EmbodiedReport(bom_name=bom.name, per_component=components, total=total)
    if attributable is not None:
        report = replace(
            report, llm_fraction=llm_fraction(report, attributable)
        )
    return report


def llm_fraction(report: EmbodiedReport, components: Iterable[str]) -> float:
    """Share (percent) of the total attributable to the given components."""
    keys = list(components)
    if not keys:
        raise UserInputError("no components given for attribution")
    missing = [k for k in keys if k not in report.per_component]
    if missing:
        raise UserInputError(f"unknown components for attribution: {missing}")
    repeated = sorted({k for k in keys if keys.count(k) > 1})
    if repeated:  # counted twice, a component would inflate the share
        raise UserInputError(f"repeated components for attribution: {repeated}")
    if report.total <= 0:
        raise ValueError("report total must be positive")
    # Rounding can put a share of every component an ulp above 100.
    return min(100.0, 100.0 * sum(report.per_component[k] for k in keys) / report.total)


# ---------------------------------------------------------------------------
# What-if edits


class ScaleUnit(Record):
    """Grow (or shrink) a die unit's area by `factor`; the die resizes with it."""

    unit: str
    factor: Positive

    def apply(self, bom: SocBom) -> SocBom:
        target = bom.unit(self.unit)
        unit_area = target.area_fraction * bom.die_area_cm2
        new_die_area = bom.die_area_cm2 + (self.factor - 1.0) * unit_area
        if new_die_area <= 0:
            raise ValueError("die area would become non-positive")
        units = []
        for u in bom.units:
            area = u.area_fraction * bom.die_area_cm2
            if u.name == self.unit:
                area *= self.factor
            units.append(DieUnit(u.name, area / new_die_area))
        return replace(
            bom, die_area_cm2=new_die_area, units=tuple(units)
        )


class SetDram(Record):
    """Replace the DRAM footprint with a fixed kgCO2-eq value."""

    dram_kg: NonNegative

    def apply(self, bom: SocBom) -> SocBom:
        return replace(bom, dram_kg=self.dram_kg)


class SetPcbArea(Record):
    """Resize the PCB."""

    area_cm2: Positive

    def apply(self, bom: SocBom) -> SocBom:
        return replace(bom, pcb_area_cm2=self.area_cm2)


BomMod = ScaleUnit | SetDram | SetPcbArea


def whatif_bom(bom: SocBom, mods: Sequence[BomMod]) -> SocBom:
    """Apply edits left to right; each returns a fresh BOM."""
    for mod in mods:
        bom = mod.apply(bom)
    return bom


# ---------------------------------------------------------------------------
# JSON I/O


_BOM_NUMBERS = ("die_area_cm2", "cpa_die_kg_per_cm2", "pcb_area_cm2", "cpa_pcb_kg_per_cm2",
                "dram_kg")


def bom_from_json(doc: object) -> SocBom:
    try:
        doc = json_object(doc, "document", ("name", *_BOM_NUMBERS))
        units = [json_object(u, f"units[{i}]", ("name", "area_fraction"))
                 for i, u in enumerate(json_list(doc.get("units", []), "units"))]
        peripherals = json_list(doc.get("peripherals", []), "peripherals")
        for i, entry in enumerate(peripherals):
            if len(json_list(entry, f"peripherals[{i}]")) != 2:
                raise ValueError(f"peripherals[{i}] is not a [name, kg] pair")
        return SocBom(
            name=json_name(doc["name"], "name"),
            units=tuple(
                DieUnit(json_name(u["name"], "unit name"),
                        float(json_number(u["area_fraction"], f"{u['name']} area_fraction")))
                for u in units
            ),
            peripherals=tuple(
                (json_name(name, "peripheral name"),
                 float(json_number(kg, f"peripheral {name} kg")))
                for name, kg in peripherals
            ),
            **{key: float(json_number(doc[key], key)) for key in _BOM_NUMBERS},
        )
    except ValueError as exc:
        raise UserInputError(f"malformed BOM: {exc}") from exc


def load_bom_json(path: str | Path) -> SocBom:
    return bom_from_json(read_json(path, "BOM"))


def report_to_json(report: EmbodiedReport) -> dict:
    doc = {
        "bom": report.bom_name,
        "components": dict(sorted(report.per_component.items())),
        "total_kg": report.total,
    }
    if report.llm_fraction is not None:
        doc["llm_fraction_pct"] = report.llm_fraction
    return doc

