"""Synthetic energy ground truth and dataset generation.

Energy for a kernel is its roofline time multiplied by a boundedness-dependent
power draw: memory-bound kernels run at idle + 0.6 * (active - idle), compute
bound kernels at full active power.  Prefill energy sums the prefill graph's
kernels once.  Decode is a closed-form table: every kernel's FLOPs and bytes
are affine in the KV position, so its counts at positions 1 and 2 price all
generated positions at once, one kernel column at a time.
Labels receive one multiplicative log-normal noise factor per phase component,
so the total label (noisy prefill + noisy decode) always exceeds the prefill
label.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import UserInputError
from ..workload import (
    DeviceSpec,
    LlmConfig,
    Request,
    apply_roofline,
    build_layer_graph,
    global_features,
    kv_cache_bytes,
    weight_memory_bytes,
)
from .data import GraphSample, PredictorInputs

MEMORY_BOUND_POWER_BLEND = 0.6

RequestSampler = Callable[[np.random.Generator], Request]


def _check_fits_dram(cfg: LlmConfig, req: Request, dev: DeviceSpec) -> None:
    seq_len = req.prompt_len + req.output_len
    need = weight_memory_bytes(cfg) + kv_cache_bytes(cfg, seq_len)
    if need > dev.dram_capacity:
        raise UserInputError(
            f"{cfg.name} at {seq_len} tokens needs {need} bytes of weights and K/V "
            f"cache, more than the {dev.dram_capacity:.0f} bytes of DRAM on {dev.name}"
        )


def phase_costs(
    cfg: LlmConfig, req: Request, dev: DeviceSpec
) -> tuple[tuple[float, float], tuple[float, float]]:
    """((prefill_s, prefill_j), (decode_s, decode_j)) of one request, noise-free.

    Decode covers KV positions prompt_len .. prompt_len + output_len - 1.
    Raises UserInputError when weights plus the final K/V cache overflow DRAM.
    """
    _check_fits_dram(cfg, req, dev)
    blend = dev.idle_power + MEMORY_BOUND_POWER_BLEND * (dev.active_power - dev.idle_power)

    def counts(phase: str, position: int | None = None) -> np.ndarray:
        graph = build_layer_graph(cfg, req, phase, position=position)
        return np.array([(n.flops, n.total_bytes) for n in graph.nodes], dtype=float)

    def cost(base, slope, offsets) -> tuple[float, float]:
        """Summed over offsets; each kernel's (flops, bytes) is base + offset * slope."""
        step_time, step_energy = np.zeros(len(offsets)), np.zeros(len(offsets))
        for (flops, moved), (dflops, dmoved) in zip(base, slope):
            flops, moved = flops + offsets * dflops, moved + offsets * dmoved
            time_s = np.maximum(flops / dev.peak_ops, moved / dev.mem_bandwidth)
            step_time += time_s
            step_energy += time_s * np.where(flops / moved <= dev.ridge_point, blend,
                                             dev.active_power)
        # cumsum adds the steps in order, as a per-position loop does, so no
        # digit moves; np.sum's pairwise order would move the last few.
        return (float(np.cumsum(step_time * cfg.num_layers)[-1]),
                float(np.cumsum(step_energy * cfg.num_layers)[-1]))

    prefill, first, second = counts("prefill"), counts("decode", 1), counts("decode", 2)
    offsets = np.arange(req.prompt_len, req.prompt_len + req.output_len) - 1.0
    return cost(prefill, 0.0 * prefill, np.zeros(1)), cost(first, second - first, offsets)


def request_energy(
    cfg: LlmConfig, req: Request, dev: DeviceSpec
) -> tuple[float, float]:
    """(prefill joules, decode joules) for one request, noise-free."""
    (_, prefill_j), (_, decode_j) = phase_costs(cfg, req, dev)
    return prefill_j, decode_j


def llm_request_energy(cfg: LlmConfig, req: Request, dev: DeviceSpec) -> float:
    """Whole-request inference energy in joules (oracle ground truth)."""
    return sum(request_energy(cfg, req, dev))


def featurize(cfg: LlmConfig, req: Request, dev: DeviceSpec) -> PredictorInputs:
    """Roofline-timed prefill and mid-decode graphs with their globals;
    raises UserInputError like `phase_costs` when the request overflows DRAM."""
    _check_fits_dram(cfg, req, dev)
    return PredictorInputs(
        apply_roofline(build_layer_graph(cfg, req, "prefill"), dev),
        global_features(cfg, req, "prefill"),
        apply_roofline(build_layer_graph(cfg, req, "decode"), dev),
        global_features(cfg, req, "total"),
    )


def sample_trace_request(rng: np.random.Generator) -> Request:
    """Log-normal prompt/output lengths loosely shaped like assistant traffic."""
    prompt = int(np.clip(np.round(rng.lognormal(np.log(96.0), 0.7)), 16, 512))
    output = int(np.clip(np.round(rng.lognormal(np.log(64.0), 0.7)), 8, 256))
    return Request(prompt_len=prompt, output_len=output)


def sample_regime_mixed_request(rng: np.random.Generator) -> Request:
    """Half prefill-dominant (long prompt, short answer), half the reverse."""
    if rng.integers(2) == 0:
        prompt = int(rng.integers(192, 448))
        output = int(rng.integers(8, 24))
    else:
        prompt = int(rng.integers(16, 48))
        output = int(rng.integers(128, 288))
    return Request(prompt_len=prompt, output_len=output)


def make_sample(
    cfg: LlmConfig,
    req: Request,
    dev: DeviceSpec,
    rng: np.random.Generator,
    noise_sigma: float,
) -> GraphSample:
    """One labeled sample; graphs carry device roofline times as features."""
    inputs = featurize(cfg, req, dev)
    clean_prefill, clean_decode = request_energy(cfg, req, dev)
    with np.errstate(over="ignore"):  # GraphSample refuses the infinite label
        noise = (
            np.exp(rng.normal(0.0, noise_sigma, size=2))
            if noise_sigma > 0
            else np.ones(2)
        )
    label_prefill = clean_prefill * noise[0]
    label_total = label_prefill + clean_decode * noise[1]
    return GraphSample(
        **vars(inputs),
        device_id=dev.name,
        label_prefill_j=float(label_prefill),
        label_total_j=float(label_total),
    )


def gen_oracle_dataset(
    configs: Sequence[LlmConfig],
    devices: Sequence[DeviceSpec],
    n: int,
    noise_sigma: float = 0.05,
    seed: int = 42,
    request_sampler: RequestSampler = sample_trace_request,
) -> list[GraphSample]:
    """Deterministic synthetic dataset over a config/device grid."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    if n > 0 and (not configs or not devices):
        raise ValueError("need at least one config and one device")
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        cfg = configs[int(rng.integers(len(configs)))]
        dev = devices[int(rng.integers(len(devices)))]
        req = request_sampler(rng)
        try:
            samples.append(make_sample(cfg, req, dev, rng, noise_sigma))
        except ValueError as exc:
            raise UserInputError(
                f"noise_sigma={noise_sigma} gives sample {len(samples)} an invalid "
                f"label: {exc}"
            ) from exc
    return samples
