"""Embodied carbon: BOM evaluation, attribution, what-if modifications."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from co2meter import assets, cli
from co2meter import embodied as emb
from co2meter.errors import UserInputError, replace

RK3588 = emb.SocBom(
    name="rk3588",
    die_area_cm2=0.89,
    cpa_die_kg_per_cm2=1.2,
    units=(emb.DieUnit("npu", 0.05),),
    pcb_area_cm2=43.5,
    cpa_pcb_kg_per_cm2=0.071,
    dram_kg=0.42,
    peripherals=(),
)


def die_total(report):
    """Carbon of every die component of a report."""
    return sum(v for k, v in report.per_component.items() if k.startswith("die:"))


# ---------------------------------------------------------------------------
# Arithmetic on the reference boards


def test_rk3588_component_breakdown():
    report = emb.soc_embodied(RK3588)
    assert report.per_component["die:npu"] == pytest.approx(0.0534, abs=1e-12)
    assert report.per_component["die:other"] == pytest.approx(1.0146, abs=1e-12)
    assert die_total(report) == pytest.approx(1.068, abs=1e-12)
    assert report.per_component["pcb"] == pytest.approx(3.0885, abs=1e-12)
    assert report.per_component["dram"] == 0.42
    assert report.total == pytest.approx(4.5765, abs=1e-12)


def test_bundled_boms_match_reference_totals():
    totals = {
        "rk3588": 4.5765,
        "rk3568": 4.16,
        "agx_orin": 15.731,
        "orin_nx": 10.08,
    }
    for name, expected in totals.items():
        report = emb.soc_embodied(assets.load_bom(name))
        assert report.total == pytest.approx(expected, abs=1e-9), name


def test_agx_orin_gpu_component():
    report = emb.soc_embodied(assets.load_bom("agx_orin"))
    assert report.per_component["die:gpu"] == pytest.approx(1.911, abs=1e-9)
    assert report.per_component["pcb"] == pytest.approx(8.591, abs=1e-9)
    assert report.per_component["dram"] == 1.68


def test_accelerator_dram_fractions():
    cases = {
        "rk3588": ("die:npu", 10.34),
        "rk3568": ("die:npu", 9.86),
        "agx_orin": ("die:gpu", 22.83),
        # derived from the bundled per-component masses; see module notes on
        # why this board's share is asserted from our own arithmetic
        "orin_nx": ("die:gpu", 16.77),
    }
    for name, (unit_key, expected_pct) in cases.items():
        report = emb.soc_embodied(assets.load_bom(name))
        frac = emb.llm_fraction(report, [unit_key, "dram"])
        assert frac == pytest.approx(expected_pct, abs=0.01), name


def test_unit_embodied_is_area_times_cpa():
    assert emb.unit_embodied(43.5, 0.071) == pytest.approx(3.0885, rel=1e-12)
    with pytest.raises(ValueError):
        emb.unit_embodied(-1.0, 0.071)


def test_llm_fraction_validation():
    report = emb.soc_embodied(RK3588)
    with pytest.raises(UserInputError):
        emb.llm_fraction(report, ["die:gpu"])  # rk3588 has an npu, not a gpu
    with pytest.raises(UserInputError):
        emb.llm_fraction(report, [])


@st.composite
def reports_and_components(draw):
    """A random BOM's report and a non-repeating list of its component keys."""
    fractions = draw(st.lists(st.floats(0.001, 0.33), max_size=3))
    positive = st.floats(0.001, 100.0)
    bom = emb.SocBom(
        name="random",
        die_area_cm2=draw(positive),
        cpa_die_kg_per_cm2=draw(positive),
        units=tuple(emb.DieUnit(f"u{i}", f) for i, f in enumerate(fractions)),
        pcb_area_cm2=draw(positive),
        cpa_pcb_kg_per_cm2=draw(positive),
        dram_kg=draw(st.floats(0.0, 100.0)),
        peripherals=tuple(
            (f"p{i}", kg) for i, kg in enumerate(draw(st.lists(st.floats(0.0, 100.0), max_size=3)))
        ),
    )
    report = emb.soc_embodied(bom)
    keys = draw(st.lists(st.sampled_from(sorted(report.per_component)), min_size=1, unique=True))
    return report, keys


@settings(max_examples=300, deadline=None)
@given(reports_and_components())
def test_llm_fraction_is_the_share_of_distinct_components(drawn):
    report, keys = drawn
    frac = emb.llm_fraction(report, keys)
    assert 0.0 <= frac <= 100.0
    share = math.fsum(report.per_component[k] for k in keys) / math.fsum(
        report.per_component.values()
    )
    assert frac == pytest.approx(100.0 * share, rel=1e-12, abs=1e-12)
    with pytest.raises(UserInputError, match="repeated components for attribution"):
        emb.llm_fraction(report, [*keys, keys[-1]])


def test_peripheral_components_are_namespaced():
    bom = emb.SocBom(
        name="board",
        die_area_cm2=1.0,
        cpa_die_kg_per_cm2=1.0,
        units=(emb.DieUnit("npu", 0.5),),
        pcb_area_cm2=10.0,
        cpa_pcb_kg_per_cm2=0.1,
        dram_kg=0.5,
        peripherals=(("camera", 1.43), ("microphone", 0.04)),
    )
    report = emb.soc_embodied(bom)
    assert report.per_component["periph:camera"] == 1.43
    assert report.per_component["periph:microphone"] == 0.04
    assert report.total == pytest.approx(1.0 + 1.0 + 0.5 + 1.43 + 0.04)




# ---------------------------------------------------------------------------
# Validation


def test_bom_fraction_sum_must_not_exceed_one():
    with pytest.raises(ValueError):
        emb.SocBom(
            name="bad",
            die_area_cm2=1.0,
            cpa_die_kg_per_cm2=1.0,
            units=(emb.DieUnit("a", 0.6), emb.DieUnit("b", 0.6)),
            pcb_area_cm2=1.0,
            cpa_pcb_kg_per_cm2=0.1,
            dram_kg=0.1,
            peripherals=(),
        )


def test_bom_unit_names_must_be_unique():
    with pytest.raises(ValueError):
        emb.SocBom(
            name="bad",
            die_area_cm2=1.0,
            cpa_die_kg_per_cm2=1.0,
            units=(emb.DieUnit("npu", 0.2), emb.DieUnit("npu", 0.2)),
            pcb_area_cm2=1.0,
            cpa_pcb_kg_per_cm2=0.1,
            dram_kg=0.1,
            peripherals=(),
        )


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_bom_peripheral_kg_must_be_finite_and_non_negative(value):
    with pytest.raises(ValueError, match="finite kg"):
        replace(RK3588, peripherals=(("camera", value),))


def test_die_unit_fraction_bounds():
    with pytest.raises(ValueError):
        emb.DieUnit("npu", 0.0)
    with pytest.raises(ValueError):
        emb.DieUnit("npu", 1.5)
    emb.DieUnit("npu", 1.0)


# ---------------------------------------------------------------------------
# What-if modifications


def test_set_dram():
    modified = emb.SetDram(1.68).apply(RK3588)
    assert modified.dram_kg == 1.68
    report = emb.soc_embodied(modified)
    assert report.total == pytest.approx(5.8365, abs=1e-12)


def test_scale_unit_grows_die_but_keeps_other_area():
    base = emb.soc_embodied(RK3588)
    modified = emb.ScaleUnit("npu", 8.0).apply(RK3588)
    report = emb.soc_embodied(modified)
    # the named unit's carbon scales by exactly k
    assert report.per_component["die:npu"] == pytest.approx(
        8.0 * base.per_component["die:npu"], rel=1e-12
    )
    # everything else on the die keeps its absolute area
    assert report.per_component["die:other"] == pytest.approx(
        base.per_component["die:other"], rel=1e-12
    )
    assert modified.die_area_cm2 == pytest.approx(
        RK3588.die_area_cm2 + 7.0 * 0.05 * 0.89, rel=1e-12
    )


def test_scale_unit_identity():
    modified = emb.ScaleUnit("npu", 1.0).apply(RK3588)
    assert emb.soc_embodied(modified).per_component == pytest.approx(
        emb.soc_embodied(RK3588).per_component
    )


def test_scale_unit_unknown_name():
    with pytest.raises(UserInputError):
        emb.ScaleUnit("gpu", 2.0).apply(RK3588)


def test_whatif_scenarios_match_reference_numbers():
    base = emb.soc_embodied(RK3588).total
    mem = emb.soc_embodied(emb.whatif_bom(RK3588, [emb.SetDram(1.68)])).total
    npu = emb.soc_embodied(
        emb.whatif_bom(RK3588, [emb.SetDram(1.68), emb.ScaleUnit("npu", 8.0)])
    ).total
    assert mem == pytest.approx(5.8365, abs=1e-9)
    assert npu == pytest.approx(6.2103, abs=1e-9)
    assert 100 * (mem - base) / base == pytest.approx(27.53, abs=0.01)
    assert 100 * (npu - base) / base == pytest.approx(35.70, abs=0.01)


def test_whatif_mods_commute():
    a = emb.whatif_bom(RK3588, [emb.SetDram(1.0), emb.ScaleUnit("npu", 4.0)])
    b = emb.whatif_bom(RK3588, [emb.ScaleUnit("npu", 4.0), emb.SetDram(1.0)])
    assert emb.soc_embodied(a).total == pytest.approx(
        emb.soc_embodied(b).total, rel=1e-12
    )


def test_set_pcb_area():
    modified = emb.SetPcbArea(100.0).apply(RK3588)
    report = emb.soc_embodied(modified)
    assert report.per_component["pcb"] == pytest.approx(7.1, rel=1e-12)
    # SoC-side components untouched
    assert die_total(report) == pytest.approx(1.068, abs=1e-12)


def test_delta_embodied():
    base = emb.soc_embodied(RK3588)
    mem = emb.soc_embodied(emb.whatif_bom(RK3588, [emb.SetDram(1.68)]))
    assert mem.total - base.total == pytest.approx(1.26, abs=1e-9)


# ---------------------------------------------------------------------------
# Properties


@given(
    die=st.floats(0.1, 10.0),
    cpa_die=st.floats(0.1, 5.0),
    frac=st.floats(0.01, 0.99),
    pcb=st.floats(1.0, 200.0),
    cpa_pcb=st.floats(0.01, 0.5),
    dram=st.floats(0.0, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_total_is_sum_of_components(die, cpa_die, frac, pcb, cpa_pcb, dram):
    bom = emb.SocBom(
        name="prop",
        die_area_cm2=die,
        cpa_die_kg_per_cm2=cpa_die,
        units=(emb.DieUnit("u", frac),),
        pcb_area_cm2=pcb,
        cpa_pcb_kg_per_cm2=cpa_pcb,
        dram_kg=dram,
        peripherals=(),
    )
    report = emb.soc_embodied(bom)
    assert report.total == pytest.approx(sum(report.per_component.values()), rel=1e-12)
    assert die_total(report) == pytest.approx(die * cpa_die, rel=1e-9)
    frac_pct = emb.llm_fraction(report, ["die:u", "dram"])
    assert 0.0 < frac_pct <= 100.0


@given(k=st.floats(1.0, 32.0))
@settings(max_examples=40, deadline=None)
def test_scale_unit_monotone_in_k(k):
    report = emb.soc_embodied(emb.ScaleUnit("npu", k).apply(RK3588))
    base = emb.soc_embodied(RK3588)
    assert report.total >= base.total - 1e-12
    assert report.per_component["die:npu"] == pytest.approx(
        k * base.per_component["die:npu"], rel=1e-9
    )


# ---------------------------------------------------------------------------
# I/O


def bom_to_json(bom):
    """The BOM document `bom_from_json` reads."""
    return {
        "name": bom.name,
        "die_area_cm2": bom.die_area_cm2,
        "cpa_die_kg_per_cm2": bom.cpa_die_kg_per_cm2,
        "units": [{"name": u.name, "area_fraction": u.area_fraction} for u in bom.units],
        "pcb_area_cm2": bom.pcb_area_cm2,
        "cpa_pcb_kg_per_cm2": bom.cpa_pcb_kg_per_cm2,
        "dram_kg": bom.dram_kg,
        "peripherals": [[name, kg] for name, kg in bom.peripherals],
    }


_POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)
_KG = st.floats(0.0, allow_infinity=False)


@st.composite
def valid_boms(draw):
    names = st.text(min_size=1)
    units = draw(st.lists(st.tuples(names, st.floats(0.0, 0.25, exclude_min=True)),
                          max_size=4, unique_by=lambda u: u[0]))
    return emb.SocBom(
        name=draw(names),
        die_area_cm2=draw(_POSITIVE),
        cpa_die_kg_per_cm2=draw(_POSITIVE),
        units=tuple(emb.DieUnit(*u) for u in units),
        pcb_area_cm2=draw(_POSITIVE),
        cpa_pcb_kg_per_cm2=draw(_POSITIVE),
        dram_kg=draw(_KG),
        peripherals=tuple(draw(st.lists(st.tuples(names, _KG), max_size=3))),
    )


@given(valid_boms())
@settings(max_examples=100, deadline=None)
def test_bom_json_round_trip(bom):
    doc = json.loads(json.dumps(bom_to_json(bom), allow_nan=False))
    assert emb.bom_from_json(doc) == bom


def test_bundled_bom_loads_match_local_definition():
    assert assets.load_bom("rk3588") == RK3588


def test_report_csv_shape(capsys):
    # the CSV form of a report is rendered by the CLI's embodied subcommand
    assert cli.main(["embodied", "--bom", "rk3588", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "component,kg_co2eq"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == ["die:npu", "die:other", "dram", "pcb", "total"]
    total = float(lines[-1].split(",")[1])
    assert total == pytest.approx(4.5765, abs=1e-9)


def test_report_json_includes_fraction_when_attributed():
    report = emb.soc_embodied(RK3588, attributable=["die:npu", "dram"])
    doc = emb.report_to_json(report)
    assert doc["llm_fraction_pct"] == pytest.approx(10.34, abs=0.01)
    plain = emb.report_to_json(emb.soc_embodied(RK3588))
    assert "llm_fraction_pct" not in plain


def test_load_bom_json_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x"}')
    with pytest.raises(UserInputError):
        emb.load_bom_json(path)
