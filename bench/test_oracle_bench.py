"""Layer benchmarks of the oracle, kept out of the tier-1 suite.

    PYTHONPATH=src python -m pytest bench/ -q

`phase_totals` of `kernel_costs` (internlm2-18b on agx_orin, prompt 500)
at three decode lengths; `kernel_costs` on that request (output 1024) on
agx_orin, where no decode kernel flips boundedness, and on a board whose
ridge sits at attn_score's mid-decode intensity, where it flips; an in-process
`co2meter estimate` of that request to a new `--out` file, unlinked after
each call (the op `estimate_sweep` times); an in-process `co2meter
breakeven` over every bundled region, where parsing its argv is a larger
share of the call; `make_sample` (tinyllama on
rk3588, prompt 96, output 64); and a warm `load_llm_config` plus
`load_device` of bundled names, the asset loads each estimate makes.
"""

import json

import numpy as np
import pytest

from co2meter import assets, cli
from co2meter import workload as wl
from co2meter.errors import replace
from co2meter.predictor import make_sample
from co2meter.workload import Request

_SCORE = 2  # attn_score's index in a layer's count rows


@pytest.mark.parametrize("output_len", [64, 1024, 4096])
def test_phase_totals(benchmark, output_len):
    cfg, dev = assets.load_llm_config("internlm2-18b"), assets.load_device("agx_orin")
    req = Request(500, output_len)
    (_, prefill_j), (_, decode_j) = benchmark(
        lambda: wl.phase_totals(wl.kernel_costs(cfg, req, dev))
    )
    assert 0 < prefill_j and 0 < decode_j


@pytest.mark.parametrize("flip", [False, True], ids=["no_flip", "flip"])
def test_kernel_costs(benchmark, flip):
    cfg, dev = assets.load_llm_config("internlm2-18b"), assets.load_device("agx_orin")
    req = Request(500, 1024)
    if flip:
        flops, *moved = wl.layer_rows(cfg, req, "decode")[_SCORE]
        dev = replace(dev, peak_ops=flops / sum(moved) * dev.mem_bandwidth)
    rows = benchmark(wl.kernel_costs, cfg, req, dev)
    assert any(r.flip_position is not None for r in rows) == flip


def test_cli_estimate(benchmark, tmp_path):
    out = tmp_path / "estimate.json"
    argv = ["estimate", "--config", "internlm2-18b", "--device", "agx_orin",
            "--prompt-len", "500", "--output-len", "1024", "--out", str(out)]

    def estimate():
        code = cli.main(argv)
        out.unlink()  # a new file per call, as in estimate_sweep
        return code

    assert benchmark(estimate) == 0


def test_cli_breakeven(benchmark, tmp_path):
    out = tmp_path / "breakeven.json"
    argv = ["breakeven", "--delta-embodied", "1.5", "--delta-energy", "120",
            "--out", str(out)]
    assert benchmark(cli.main, argv) == 0
    assert json.loads(out.read_text())["india"]["ci_kg_per_kwh"] == 0.7


def test_make_sample(benchmark):
    cfg, dev = assets.load_llm_config("tinyllama-11b"), assets.load_device("rk3588")
    rng = np.random.default_rng(0)
    sample = benchmark(make_sample, cfg, Request(96, 64), dev, rng, 0.05)
    assert sample.label_total_j > sample.label_prefill_j


def test_load_bundled_assets(benchmark):
    def load():
        return assets.load_llm_config("internlm2-18b"), assets.load_device("agx_orin")

    warm = load()  # the first load of a name reads and parses its file
    assert benchmark(load) == warm
