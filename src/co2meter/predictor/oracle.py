"""Synthetic energy ground truth and dataset generation.

The ground truth is `workload.request_energy`, the per-phase joules of the
closed-form `kernel_costs` rows.  Labels receive one multiplicative log-normal
noise factor per phase component, so the total label always exceeds the
prefill label.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import UserInputError, check_range
from ..workload import DeviceSpec, LlmConfig, Request, request_energy
from .data import GraphSample, measured_sample

RequestSampler = Callable[[np.random.Generator], Request]


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
    """One labeled sample: the oracle's phase energies times log-normal noise."""
    clean_prefill, clean_decode = request_energy(cfg, req, dev)
    with np.errstate(over="ignore"):  # GraphSample refuses the infinite label
        noise = (
            np.exp(rng.normal(0.0, noise_sigma, size=2))
            if noise_sigma > 0
            else np.ones(2)
        )
    label_prefill = clean_prefill * noise[0]
    label_total = label_prefill + clean_decode * noise[1]
    return measured_sample(cfg, req, dev, float(label_prefill), float(label_total))


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
    check_range(noise_sigma, "NonNegative", "noise_sigma")
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
