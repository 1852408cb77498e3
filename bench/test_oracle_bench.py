"""Layer benchmarks of the oracle, kept out of the tier-1 suite.

    PYTHONPATH=src python -m pytest bench/ -q

`phase_costs` (internlm2-18b on agx_orin, prompt 500) at three decode
lengths, and `make_sample` (tinyllama on rk3588, prompt 96, output 64).
"""

import numpy as np
import pytest

from co2meter import assets
from co2meter.predictor import make_sample, phase_costs
from co2meter.workload import Request


@pytest.mark.parametrize("output_len", [64, 1024, 4096])
def test_phase_costs(benchmark, output_len):
    cfg, dev = assets.load_llm_config("internlm2-18b"), assets.load_device("agx_orin")
    (_, prefill_j), (_, decode_j) = benchmark(phase_costs, cfg, Request(500, output_len), dev)
    assert 0 < prefill_j and 0 < decode_j


def test_make_sample(benchmark):
    cfg, dev = assets.load_llm_config("tinyllama-11b"), assets.load_device("rk3588")
    rng = np.random.default_rng(0)
    sample = benchmark(make_sample, cfg, Request(96, 64), dev, rng, 0.05)
    assert sample.label_total_j > sample.label_prefill_j
