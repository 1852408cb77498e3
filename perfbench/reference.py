"""Independent numpy reference for every figure the benchmark checks.

Nothing here imports co2meter.  The formulas are restated from the
program's documentation (workload, oracle, embodied and accounting module
docstrings) and the bundled assets are read as plain JSON, so a fault in the
program cannot also hide in its reference.

Kernel accounting (per decoder layer, dense, fusion-free): matmuls cost
2*M*N*K FLOPs, softmax / norm / residual / activation cost 5 / 7 / 2 / 4 FLOPs
per element, and every kernel loads its inputs and stores its outputs once.
A kernel's roofline time is max(flops / peak_ops, bytes / mem_bandwidth); it
draws active power when its intensity lies above the ridge point, and
idle + 0.6 * (active - idle) otherwise.  Decode sums one graph per generated
position prompt_len + step, step = 0 .. output_len - 1.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MEMORY_BOUND_POWER_BLEND = 0.6
JOULES_PER_KWH = 3.6e6
DAYS_PER_YEAR = 365.0
MEMORY_BOUND = "memory_bound"
COMPUTE_BOUND = "compute_bound"

KERNELS = (
    "norm", "qkv_proj", "attn_score", "softmax", "attn_value", "out_proj",
    "residual", "norm", "ffn_up", "ffn_act", "ffn_down", "residual",
)

# The CLI's what-if scenarios: device scaling plus the BOM edits paying for it.
SCENARIOS = {
    "rk-mem": {"compute": 1.0, "bandwidth": 4.0, "dram_kg": 1.68, "scale": None},
    "rk-npu": {"compute": 8.0, "bandwidth": 4.0, "dram_kg": 1.68, "scale": ("npu", 8.0)},
}


class Assets:
    """The bundled asset files, read as plain JSON."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def _json(self, *parts: str) -> dict:
        return json.loads((self.root.joinpath(*parts)).read_text())

    def config(self, name: str) -> dict:
        return self._json("llm_configs", f"{name}.json")

    def device(self, name: str) -> dict:
        return self._json("devices", f"{name}.json")

    def bom(self, name: str) -> dict:
        return self._json("boms", f"{name}.json")

    def pipeline(self, name: str) -> dict:
        return self._json("pipelines", f"{name}.json")

    def ci_table(self) -> dict:
        return self._json("ci_table.json")

    def truth(self) -> dict:
        return self._json("measurements", "truth.json")

    def csv(self, name: str) -> Path:
        return self.root / "measurements" / f"{name}.csv"


# ---------------------------------------------------------------------------
# Kernel graph and roofline


def kernel_table(cfg: dict, tokens, kv) -> tuple[np.ndarray, np.ndarray]:
    """(flops, bytes), each (12, n): one row per kernel, one column per kv length.

    `tokens` and `kv` broadcast against each other; pass an array of kv
    lengths to get every decode position at once.
    """
    t = np.asarray(tokens, dtype=np.int64)
    s = np.asarray(kv, dtype=np.int64)
    t, s = np.broadcast_arrays(np.atleast_1d(t), np.atleast_1d(s))
    d, f, h = cfg["hidden_dim"], cfg["ffn_dim"], cfg["num_heads"]
    ab, wb = cfg.get("act_bytes", 2), cfg.get("weight_bytes", 1)
    norm = (7 * t * d, 2 * d * wb + 2 * t * d * ab)
    residual = (2 * t * d, 3 * t * d * ab)
    rows = (
        norm,
        (6 * t * d * d, 3 * d * d * wb + 4 * t * d * ab),
        (2 * t * s * d, t * d * ab + s * d * ab + h * t * s * ab),
        (5 * h * t * s, 2 * h * t * s * ab),
        (2 * t * s * d, h * t * s * ab + s * d * ab + t * d * ab),
        (2 * t * d * d, d * d * wb + 2 * t * d * ab),
        residual,
        norm,
        (2 * t * d * f, d * f * wb + t * d * ab + t * f * ab),
        (4 * t * f, 2 * t * f * ab),
        (2 * t * d * f, d * f * wb + t * f * ab + t * d * ab),
        residual,
    )
    flops = np.stack([np.broadcast_to(r[0], t.shape) for r in rows])
    moved = np.stack([np.broadcast_to(r[1], t.shape) for r in rows])
    return flops, moved


def ridge_point(dev: dict) -> float:
    return dev["peak_ops"] / dev["mem_bandwidth"]


def roofline(flops: np.ndarray, moved: np.ndarray, dev: dict):
    """Per-kernel (time_s, power_w, intensity) arrays."""
    time_s = np.maximum(flops / dev["peak_ops"], moved / dev["mem_bandwidth"])
    intensity = flops / moved
    idle, active = dev["idle_power"], dev["active_power"]
    blended = idle + MEMORY_BOUND_POWER_BLEND * (active - idle)
    power = np.where(intensity > ridge_point(dev), active, blended)
    return time_s, power, intensity


def boundedness(intensity: float, dev: dict) -> str:
    return MEMORY_BOUND if intensity <= ridge_point(dev) else COMPUTE_BOUND


def phase_intensity(cfg: dict, tokens: int, kv: int) -> float:
    flops, moved = kernel_table(cfg, tokens, kv)
    return float(flops.sum() / moved.sum())


def request_energy(cfg: dict, dev: dict, prompt: int, output: int):
    """((prefill_j, prefill_s), (decode_j, decode_s)), noise-free."""
    layers = cfg["num_layers"]
    time_s, power, _ = roofline(*kernel_table(cfg, prompt, prompt), dev)
    prefill = (float((time_s * power).sum() * layers), float(time_s.sum() * layers))
    positions = prompt + np.arange(output)
    time_s, power, _ = roofline(*kernel_table(cfg, 1, positions), dev)
    decode = (float((time_s * power).sum() * layers), float(time_s.sum() * layers))
    return prefill, decode


def estimate_doc(cfg: dict, dev: dict, prompt: int, output: int) -> dict:
    """What `co2meter estimate` must print for one request."""
    (pj, ps), (dj, ds) = request_energy(cfg, dev, prompt, output)
    prefill_i = phase_intensity(cfg, prompt, prompt)
    mid_i = phase_intensity(cfg, 1, prompt + output // 2)
    return {
        "config": cfg["name"],
        "device": dev["name"],
        "prompt_len": prompt,
        "output_len": output,
        "prefill": {
            "energy_j": pj,
            "time_s": ps,
            "intensity": prefill_i,
            "boundedness": boundedness(prefill_i, dev),
        },
        "decode": {
            "energy_j": dj,
            "time_s": ds,
            "intensity_mid": mid_i,
            "boundedness_mid": boundedness(mid_i, dev),
        },
        "total_energy_j": pj + dj,
    }


def roofline_doc(cfg: dict, dev: dict, prompt: int, output: int) -> dict:
    """What `co2meter roofline` must print: roof points and per-kernel points."""
    roof = []
    for half_step in range(-8, 29):
        intensity = 2.0 ** (half_step / 2.0)
        roof.append({
            "intensity": intensity,
            "perf": min(dev["peak_ops"], dev["mem_bandwidth"] * intensity),
        })
    kernels = []
    for phase, tokens, kv in (("prefill", prompt, prompt),
                              ("decode", 1, prompt + output // 2)):
        flops, moved = kernel_table(cfg, tokens, kv)
        for kind, fl, mv in zip(KERNELS, flops[:, 0], moved[:, 0]):
            intensity = float(fl / mv)
            kernels.append({
                "phase": phase,
                "kind": kind,
                "intensity": intensity,
                "perf": min(dev["peak_ops"], dev["mem_bandwidth"] * intensity),
                "boundedness": boundedness(intensity, dev),
            })
    return {
        "device": {
            "name": dev["name"],
            "peak_ops": dev["peak_ops"],
            "mem_bandwidth": dev["mem_bandwidth"],
            "ridge_point": ridge_point(dev),
        },
        "roof": roof,
        "kernels": kernels,
    }


def weight_bytes(cfg: dict) -> int:
    d, f = cfg["hidden_dim"], cfg["ffn_dim"]
    params = cfg["vocab_size"] * d + cfg["num_layers"] * (4 * d * d + 2 * d * f + 4 * d) + 2 * d
    return params * cfg.get("weight_bytes", 1)


def fits_in_dram(cfg: dict, dev: dict, prompt: int, output: int) -> bool:
    """Weights plus the K/V cache at the final position fit the device DRAM."""
    kv = 2 * cfg["num_layers"] * cfg["hidden_dim"] * (prompt + output) * cfg.get("act_bytes", 2)
    return weight_bytes(cfg) + kv <= dev["dram_capacity"]


# ---------------------------------------------------------------------------
# Embodied carbon, what-if, break-even, pipeline


def embodied(bom: dict, components=None) -> dict:
    """What `co2meter embodied` must print: area x carbon-per-area per part."""
    die, cpa = bom["die_area_cm2"], bom["cpa_die_kg_per_cm2"]
    parts = {"pcb": bom["pcb_area_cm2"] * bom["cpa_pcb_kg_per_cm2"]}
    used = 0.0
    for unit in bom.get("units", []):
        parts[f"die:{unit['name']}"] = unit["area_fraction"] * die * cpa
        used += unit["area_fraction"]
    parts["die:other"] = max(0.0, 1.0 - used) * die * cpa
    parts["dram"] = bom["dram_kg"]
    for name, kg in bom.get("peripherals", []):
        parts[f"periph:{name}"] = kg
    total = sum(parts.values())
    if components is None:
        components = [f"die:{u['name']}" for u in bom.get("units", [])] + ["dram"]
    return {
        "bom": bom["name"],
        "components": parts,
        "total_kg": total,
        "llm_fraction_pct": 100.0 * sum(parts[c] for c in components) / total,
    }


def whatif_doc(scenario: str, bom: dict, dev: dict, cfg: dict, prompt_lens) -> dict:
    """What `co2meter whatif` must print."""
    sc = SCENARIOS[scenario]
    base_kg = embodied(bom)["total_kg"]
    modified = dict(bom, dram_kg=sc["dram_kg"])
    if sc["scale"] is not None:
        name, factor = sc["scale"]
        die = bom["die_area_cm2"]
        areas = {u["name"]: u["area_fraction"] * die for u in bom["units"]}
        grown = die + (factor - 1.0) * areas[name]
        areas[name] *= factor
        modified["die_area_cm2"] = grown
        modified["units"] = [{"name": n, "area_fraction": a / grown} for n, a in areas.items()]
    mod_kg = embodied(modified)["total_kg"]
    fast = dict(dev, peak_ops=dev["peak_ops"] * sc["compute"],
                mem_bandwidth=dev["mem_bandwidth"] * sc["bandwidth"])
    series = []
    for n in prompt_lens:
        flops, moved = kernel_table(cfg, n, n)
        base_t = roofline(flops, moved, dev)[0].sum()
        fast_t = roofline(flops, moved, fast)[0].sum()
        series.append({"prompt_len": n, "speedup": float(base_t / fast_t)})
    return {
        "scenario": scenario,
        "device": {"name": dev["name"], "compute_factor": sc["compute"],
                   "bandwidth_factor": sc["bandwidth"]},
        "embodied": {"base_kg": base_kg, "modified_kg": mod_kg,
                     "increase_pct": 100.0 * (mod_kg - base_kg) / base_kg},
        "prefill_speedup": series,
    }


def breakeven(delta_embodied_kg: float, delta_energy_j: float, ci_kg_per_kwh: float,
              lifespan_years: float) -> float:
    """Requests/day at which the embodied delta equals the operational saving."""
    saving_kg = delta_energy_j / JOULES_PER_KWH * ci_kg_per_kwh
    return delta_embodied_kg / (saving_kg * DAYS_PER_YEAR * lifespan_years)


def breakeven_doc(delta_embodied_kg, delta_energy_j, ci_table: dict, lifespan) -> dict:
    return {
        region: {"ci_kg_per_kwh": ci,
                 "requests_per_day": breakeven(delta_embodied_kg, delta_energy_j, ci, lifespan)}
        for region, ci in ci_table.items()
    }


def pipeline_doc(assets: Assets, name: str = "voice_assistant", footprint=None) -> dict:
    """What `co2meter pipeline` must print, from truth.json and the oracle.

    `footprint` is (requests_per_day, region, bom_name, lifespan_years).
    """
    p = assets.pipeline(name)
    truth = assets.truth()
    inp, out, llm = p["input"], p["output"], p["llm"]
    mic = truth["mic"]
    input_j = mic["static_power_w"] * inp["duration_s"] + mic["marginal_energy_j"] * inp["samples"]
    disp, video = truth["display"], truth["video"]
    grey = out["grey"]
    panel_w = disp["a_w"] + disp["b_w_per_grey"] * grey + disp["c_w_per_grey2"] * grey * grey
    video_w = video["static_power_w"] + video["power_per_pixel_w"] * out["pixels"]
    dev = assets.device(llm["device"])
    (pj, _), (dj, _) = request_energy(assets.config(llm["config"]), dev,
                                      llm["prompt_len"], llm["output_len"])
    stages = {
        "input": input_j,
        "con": p["conversion"]["energy_j"],
        "llm": pj + dj,
        "output": (panel_w + video_w) * out["duration_s"],
        "sys": dev["idle_power"] * p["total_duration_s"],
    }
    doc = {
        "pipeline": p["name"],
        "llm_source": "oracle",
        "breakdown": dict(stages, total_j=sum(stages.values())),
    }
    if footprint is not None:
        rpd, region, bom_name, lifespan = footprint
        ci = assets.ci_table()[region]
        embodied_kg = embodied(assets.bom(bom_name))["total_kg"]
        operational = (doc["breakdown"]["total_j"] * rpd * DAYS_PER_YEAR * lifespan
                       / JOULES_PER_KWH * ci)
        doc["footprint"] = {"region": region, "embodied_kg": embodied_kg,
                            "operational_kg": operational,
                            "total_kg": embodied_kg + operational}
    return doc


def geomean_mape(train_labels, test_labels) -> float:
    """MAPE (percent) of predicting the training labels' geometric mean."""
    guess = float(np.exp(np.mean(np.log(train_labels))))
    test = np.asarray(test_labels, dtype=float)
    return float(np.mean(np.abs(guess - test) / test) * 100.0)
