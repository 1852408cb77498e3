"""Layer benchmarks of predictor training, kept out of the tier-1 suite.

    PYTHONPATH=src python -m pytest bench/ -q

One epoch of `train_tower` over a fixed 140-sample prepared set (five
mini-batches of at most 32), one batched loss-and-gradient pass over a
32-sample mini-batch gathered into a reused workspace (as training runs it),
chained `evaluate_params` over 200 samples, a 10-epoch `train` over the
same 200 samples (featurization, norm fitting, both towers and validation),
and a `save_params_json` + `load_params_json` round trip of both towers and
fitted norms through a file.
"""

import numpy as np
import pytest

from co2meter import assets
from co2meter.predictor import (
    TowerParams,
    TrainConfig,
    evaluate_params,
    gen_oracle_dataset,
    init_params,
    load_params_json,
    save_params_json,
    train,
)
from co2meter.predictor.gnn import Workspace, gathered_loss_and_grads
from co2meter.predictor.training import _prepare, fit_norms, train_tower

CONFIGS = ("qwen15-05b", "tinyllama-11b", "internlm2-18b")


def _dataset(n):
    configs = [assets.load_llm_config(name) for name in CONFIGS]
    return gen_oracle_dataset(configs, [assets.load_device("rk3588")], n, seed=42)


@pytest.fixture(scope="module")
def prepared():
    dataset = _dataset(140)
    params = init_params(42)
    params.norms = fit_norms(dataset)
    return params, _prepare(dataset, params.norms, "prefill")


def test_train_tower_epoch(benchmark, prepared):
    params, train_set = prepared
    cfg = TrainConfig(epochs=1)

    def one_epoch():
        tower = TowerParams(**params.prefill.arrays())
        train_tower(tower, train_set, [], cfg, np.random.default_rng(0), "prefill")

    benchmark(one_epoch)


def test_batch_forward_backward(benchmark, prepared):
    params, train_set = prepared
    rows = np.arange(32)
    g, log_target = train_set.g[rows], train_set.log_target[rows]
    workspace = Workspace.allocate(params.prefill, len(rows), train_set.h0.shape[1])

    def step():
        ws = workspace.gather(train_set.c0, rows, train_set.preds)
        return gathered_loss_and_grads(params.prefill, ws, g, log_target)

    loss, grad = benchmark(step)
    assert np.isfinite(loss) and grad.shape == params.prefill.flat.shape


def test_evaluate_params(benchmark):
    dataset = _dataset(200)
    params = init_params(42)
    params.norms = fit_norms(dataset)
    metrics = benchmark(evaluate_params, params, dataset)
    assert metrics["total"].n == 200


def test_train(benchmark):
    dataset = _dataset(200)
    cfg = TrainConfig(epochs=10, train_frac=0.7, val_frac=0.1)  # the train_eval split
    params, history = benchmark(train, dataset, cfg)
    assert len(history) == 20 and np.isfinite(params.total.bh2[0])


def test_params_round_trip(benchmark, prepared, tmp_path):
    params, _ = prepared
    path = tmp_path / "params.json"

    def round_trip():
        save_params_json(path, params)
        return load_params_json(path)[0]

    loaded = benchmark(round_trip)
    assert np.array_equal(loaded.total.flat.view(np.uint64), params.total.flat.view(np.uint64))
