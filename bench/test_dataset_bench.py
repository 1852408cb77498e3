"""Layer benchmarks of dataset JSONL I/O, kept out of the tier-1 suite.

    PYTHONPATH=src python -m pytest bench/ -q

`write_dataset_jsonl` and `read_dataset_jsonl` of the set `train_eval`
generates in its set-up: 200 trace-sampler samples over the three bundled
configs on rk3588 and orin_nx, one format-3 line per sample; reading
rebuilds each sample's features with `featurize`.
"""

import pytest

from co2meter import assets
from co2meter.predictor import (
    gen_oracle_dataset,
    read_dataset_jsonl,
    sample_trace_request,
    write_dataset_jsonl,
)

CONFIGS = ("qwen15-05b", "tinyllama-11b", "internlm2-18b")
DEVICES = ("rk3588", "orin_nx")


@pytest.fixture(scope="module")
def samples():
    return gen_oracle_dataset([assets.load_llm_config(n) for n in CONFIGS],
                              [assets.load_device(n) for n in DEVICES], 200, seed=42,
                              request_sampler=sample_trace_request)


@pytest.mark.parametrize("op", ["write", "read"])
def test_dataset_jsonl(benchmark, samples, tmp_path, op):
    path = tmp_path / "dataset.jsonl"
    write_dataset_jsonl(path, samples)
    if op == "write":
        benchmark(write_dataset_jsonl, path, samples)
        assert read_dataset_jsonl(path) == samples
    else:
        assert benchmark(read_dataset_jsonl, path) == samples
