"""Synthetic energy ground truth and dataset generation.

Energy for a kernel is its roofline time multiplied by a boundedness-dependent
power draw: memory-bound kernels run at idle + 0.6 * (active - idle), compute
bound kernels at full active power.  `kernel_costs` prices a request kernel by
kernel.  Prefill runs each kernel once per layer.  Decode runs it once per
layer at every KV position prompt_len .. prompt_len + output_len - 1, and its
FLOPs and bytes there are affine in the position (the decode graphs at
positions 1 and 2 fix them exactly).  Its intensity is then a ratio of two
affine functions, which is monotone, so the boundedness test
`flops / bytes <= ridge_point` flips at most once within a request; a binary
search over that exact float predicate finds the flip.  The roofs cross at
the ridge, so `max(flops / peak, bytes / bandwidth)` is the memory time on
the memory-bound side and the compute time on the other (up to an ulp at a
tie).  On each of the at most two segments the summed time is therefore one
arithmetic series, priced from an exact integer sum of bytes or FLOPs, and the
energy is that time times the segment's power.  A request costs O(kernels)
at any length.
Labels receive one multiplicative log-normal noise factor per phase component,
so the total label (noisy prefill + noisy decode) always exceeds the prefill
label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import UserInputError
from ..workload import (
    COMPUTE_BOUND,
    GRAPH_PHASES,
    MEMORY_BOUND,
    DeviceSpec,
    KernelNode,
    LlmConfig,
    Request,
    RequestKernels,
    apply_roofline,
    global_features,
    kv_cache_bytes,
    request_kernels,
    weight_memory_bytes,
)
from .data import GraphSample, PredictorInputs

MEMORY_BOUND_POWER_BLEND = 0.6

RequestSampler = Callable[[np.random.Generator], Request]


@dataclass(frozen=True)
class KernelCost:
    """One kernel of a request on a device, summed over its phase and all layers."""

    phase: str
    kind: str
    flops: int
    bytes: int
    time_s: float
    energy_j: float
    boundedness: str  # at the phase's first position
    flip_position: int | None  # first decode KV position whose boundedness differs


def _check_fits_dram(cfg: LlmConfig, req: Request, dev: DeviceSpec) -> None:
    seq_len = req.prompt_len + req.output_len
    need = weight_memory_bytes(cfg) + kv_cache_bytes(cfg, seq_len)
    if need > dev.dram_capacity:
        raise UserInputError(
            f"{cfg.name} at {seq_len} tokens needs {need} bytes of weights and K/V "
            f"cache, more than the {dev.dram_capacity:.0f} bytes of DRAM on {dev.name}"
        )


def _flip(pred: Callable[[int], bool], lo: int, hi: int) -> int | None:
    """First n in (lo, hi] with pred(n) != pred(lo), for a pred that changes at most once."""
    first = pred(lo)
    if pred(hi) == first:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid) == first:
            lo = mid
        else:
            hi = mid
    return hi


class _Pricer:
    """Roofline time and power of kernel counts on one device."""

    def __init__(self, dev: DeviceSpec, layers: int) -> None:
        self.dev, self.layers, self.ridge = dev, layers, dev.ridge_point
        self.blend = dev.idle_power + MEMORY_BOUND_POWER_BLEND * (
            dev.active_power - dev.idle_power
        )

    def memory_bound(self, flops: int, moved: int) -> bool:
        """`classify_node`'s test on raw counts."""
        return (flops / moved if moved > 0 else 0.0) <= self.ridge

    def prefill(self, node: KernelNode) -> KernelCost:
        flops, moved = node.flops, node.total_bytes
        time_s = max(flops / self.dev.peak_ops, moved / self.dev.mem_bandwidth)
        memory = self.memory_bound(flops, moved)
        power = self.blend if memory else self.dev.active_power
        return KernelCost(
            "prefill", node.kind, flops * self.layers, moved * self.layers,
            time_s * self.layers, time_s * power * self.layers,
            MEMORY_BOUND if memory else COMPUTE_BOUND, None,
        )

    def decode(self, first: KernelNode, second: KernelNode, lo: int, hi: int) -> KernelCost:
        """The kernel at KV positions lo..hi, from its nodes at positions 1 and 2."""
        dflops, dmoved = second.flops - first.flops, second.total_bytes - first.total_bytes
        flops0, moved0 = first.flops - dflops, first.total_bytes - dmoved  # position 0

        def at(p: int) -> tuple[int, int]:
            return flops0 + p * dflops, moved0 + p * dmoved

        flip = _flip(lambda p: self.memory_bound(*at(p)), lo, hi)
        cuts = [lo, hi + 1] if flip is None else [lo, flip, hi + 1]
        flops = moved = 0
        time_s = energy_j = 0.0
        for start, stop in zip(cuts, cuts[1:]):
            n = stop - start
            position_sum = (start + stop - 1) * n // 2
            seg_flops = n * flops0 + position_sum * dflops
            seg_moved = n * moved0 + position_sum * dmoved
            # A memory-bound kernel's roofline time is its memory time: the
            # two roofs cross at the ridge, up to an ulp at a tie.
            if self.memory_bound(*at(start)):
                seg_time, power = seg_moved / self.dev.mem_bandwidth, self.blend
            else:
                seg_time, power = seg_flops / self.dev.peak_ops, self.dev.active_power
            flops, moved = flops + seg_flops, moved + seg_moved
            time_s += seg_time
            energy_j += seg_time * power
        return KernelCost(
            "decode", first.kind, flops * self.layers, moved * self.layers,
            time_s * self.layers, energy_j * self.layers,
            MEMORY_BOUND if self.memory_bound(*at(lo)) else COMPUTE_BOUND, flip,
        )


def kernel_costs(
    cfg: LlmConfig,
    req: Request,
    dev: DeviceSpec,
    kernels: RequestKernels | None = None,
) -> tuple[KernelCost, ...]:
    """Every prefill kernel, then every decode kernel, of one request, noise-free.

    Decode covers KV positions prompt_len .. prompt_len + output_len - 1.
    `kernels`, when given, must be `request_kernels(cfg, req)`.
    Raises UserInputError when weights plus the final K/V cache overflow DRAM.
    """
    _check_fits_dram(cfg, req, dev)
    if kernels is None:
        kernels = request_kernels(cfg, req)
    pricer = _Pricer(dev, cfg.num_layers)
    lo, hi = req.prompt_len, req.prompt_len + req.output_len - 1
    return tuple(pricer.prefill(node) for node in kernels.prefill.nodes) + tuple(
        pricer.decode(a, b, lo, hi)
        for a, b in zip(kernels.first.nodes, kernels.second.nodes)
    )


def phase_costs(
    cfg: LlmConfig,
    req: Request,
    dev: DeviceSpec,
    kernels: RequestKernels | None = None,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """((prefill_s, prefill_j), (decode_s, decode_j)) of one request, noise-free;
    raises UserInputError like `kernel_costs`."""
    return phase_totals(kernel_costs(cfg, req, dev, kernels))


def phase_totals(
    rows: Sequence[KernelCost],
) -> tuple[tuple[float, float], tuple[float, float]]:
    """((prefill_s, prefill_j), (decode_s, decode_j)) summed over `kernel_costs` rows."""
    prefill, decode = (
        (sum(r.time_s for r in rows if r.phase == phase),
         sum(r.energy_j for r in rows if r.phase == phase))
        for phase in GRAPH_PHASES
    )
    return prefill, decode


def request_energy(
    cfg: LlmConfig, req: Request, dev: DeviceSpec
) -> tuple[float, float]:
    """(prefill joules, decode joules) for one request, noise-free."""
    (_, prefill_j), (_, decode_j) = phase_costs(cfg, req, dev)
    return prefill_j, decode_j


def llm_request_energy(cfg: LlmConfig, req: Request, dev: DeviceSpec) -> float:
    """Whole-request inference energy in joules (oracle ground truth)."""
    return sum(request_energy(cfg, req, dev))


def featurize(
    cfg: LlmConfig,
    req: Request,
    dev: DeviceSpec,
    kernels: RequestKernels | None = None,
) -> PredictorInputs:
    """Roofline-timed prefill and mid-decode graphs with their globals;
    raises UserInputError like `phase_costs` when the request overflows DRAM."""
    _check_fits_dram(cfg, req, dev)
    if kernels is None:
        kernels = request_kernels(cfg, req)
    return PredictorInputs(
        apply_roofline(kernels.prefill, dev),
        global_features(cfg, req, "prefill", kernels=kernels),
        apply_roofline(kernels.decode(), dev),
        global_features(cfg, req, "total", kernels=kernels),
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
    kernels = request_kernels(cfg, req)
    inputs = featurize(cfg, req, dev, kernels)
    (_, clean_prefill), (_, clean_decode) = phase_costs(cfg, req, dev, kernels)
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
