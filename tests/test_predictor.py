"""Energy predictor: forward/backward correctness, training behavior, data I/O."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from co2meter import assets
from co2meter.errors import TrainingDivergedError, UserInputError
from co2meter.predictor import (
    GLOBAL_DIM,
    HIDDEN_DIM,
    NODE_FEATURE_DIM,
    Adam,
    GraphSample,
    TrainConfig,
    error_bound_share,
    evaluate_baseline_total,
    evaluate_params,
    evaluate_predictions,
    fit_ridge_globals,
    forward_tower,
    gen_oracle_dataset,
    grad_check,
    init_params,
    init_tower,
    load_params_json,
    mape,
    params_from_json,
    params_to_json,
    predict_prefill,
    predict_sample,
    predict_single_phase,
    predict_total,
    read_dataset_jsonl,
    request_energy,
    sample_to_json,
    save_params_json,
    split_indices,
    train,
    train_single_phase,
    write_dataset_jsonl,
)
import gnn_reference
from co2meter.predictor import baselines, training
from co2meter.predictor.gnn import (
    _aggregation_matrix,
    batch_loss_and_grads,
    fit_feature_norms,
    identity_norms,
)
from co2meter.predictor.training import (
    _prepare,
    _Stacks,
    _tower_predictions,
    fit_norms,
    train_tower,
)
from co2meter.workload import LayerGraph, Request, in_neighbor_lists, with_prefill_energy

QWEN = assets.load_llm_config("qwen15-05b")
RK3588 = assets.load_device("rk3588")


@pytest.fixture(scope="module")
def dataset20():
    return gen_oracle_dataset([QWEN], [RK3588], 20, noise_sigma=0.05, seed=42)


# ---------------------------------------------------------------------------
# Architecture / forward pass


def test_tower_shapes_and_param_count():
    tower = init_tower(np.random.default_rng(0), NODE_FEATURE_DIM, GLOBAL_DIM)
    assert tower.w1.shape == (HIDDEN_DIM, 2 * NODE_FEATURE_DIM)
    assert tower.w2.shape == (HIDDEN_DIM, 2 * HIDDEN_DIM)
    assert tower.wh1.shape == (HIDDEN_DIM, HIDDEN_DIM + GLOBAL_DIM)
    assert tower.wh2.shape == (HIDDEN_DIM,)
    assert tower.glob_dim == GLOBAL_DIM
    expected = (
        HIDDEN_DIM * 2 * NODE_FEATURE_DIM + HIDDEN_DIM
        + HIDDEN_DIM * 2 * HIDDEN_DIM + HIDDEN_DIM
        + HIDDEN_DIM * (HIDDEN_DIM + GLOBAL_DIM) + HIDDEN_DIM
        + HIDDEN_DIM + 1
    )
    assert tower.n_params() == expected


def _reference_forward(tower, h0, preds, g):
    """Scalar re-implementation of the tower forward pass (plain loops)."""

    def relu_vec(v):
        return [max(x, 0.0) for x in v]

    def affine(w, b, x):
        return [sum(w[i][j] * x[j] for j in range(len(x))) + b[i] for i in range(len(b))]

    def neighbor_mean(h):
        width = len(h[0])
        out = []
        for ps in preds:
            if ps:
                out.append(
                    [sum(sorted(h[p][j] for p in ps)) / len(ps) for j in range(width)]
                )
            else:
                out.append([0.0] * width)
        return out

    h = [list(row) for row in h0]
    for w, b in ((tower.w1, tower.b1), (tower.w2, tower.b2)):
        mean = neighbor_mean(h)
        h = [relu_vec(affine(w, b, h[v] + mean[v])) for v in range(len(h))]
    width = len(h[0])
    pooled = [sum(sorted(h[v][j] for v in range(len(h)))) / len(h) for j in range(width)]
    u = relu_vec(affine(tower.wh1, tower.bh1, pooled + list(g)))
    return sum(tower.wh2[i] * u[i] for i in range(len(u))) + tower.bh2[0]


def test_forward_matches_scalar_reference():
    rng = np.random.default_rng(3)
    tower = init_tower(rng, node_dim=2, glob_dim=1)
    h0 = rng.normal(size=(3, 2))
    preds = ((), (0,), (0, 1))
    g = np.array([0.7])
    y, _ = forward_tower(tower, h0, preds, g)
    assert y == pytest.approx(_reference_forward(tower, h0, preds, g), rel=1e-12)


def _relabeled(graph: LayerGraph, order: np.ndarray) -> LayerGraph:
    """Same graph with node i moved to position order^-1(i)."""
    inv = np.empty(len(order), dtype=int)
    inv[order] = np.arange(len(order))
    return LayerGraph(
        nodes=tuple(graph.nodes[i] for i in order),
        edges=tuple((int(inv[s]), int(inv[d])) for s, d in graph.edges),
        phase=graph.phase,
    )


def test_predictions_bitwise_invariant_to_node_relabeling(dataset20):
    params = init_params(0)
    params.norms = fit_norms(dataset20)
    sample = dataset20[0]
    base_prefill = predict_prefill(sample.prefill_graph, sample.prefill_globals, params)
    gf_total = with_prefill_energy(sample.total_globals, base_prefill)
    base_total = predict_total(sample.decode_graph, gf_total, params)
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        shuffled = _relabeled(
            sample.prefill_graph, rng.permutation(len(sample.prefill_graph.nodes))
        )
        assert predict_prefill(shuffled, sample.prefill_globals, params) == base_prefill
        shuffled = _relabeled(
            sample.decode_graph, rng.permutation(len(sample.decode_graph.nodes))
        )
        assert predict_total(shuffled, gf_total, params) == base_total


def test_predictions_positive_and_finite_at_init(dataset20):
    params = init_params(7)
    params.norms = fit_norms(dataset20)
    for sample in dataset20[:5]:
        prefill_j, total_j = predict_sample(params, sample)
        assert prefill_j > 0 and np.isfinite(prefill_j)
        assert total_j > 0 and np.isfinite(total_j)


def test_aggregation_matrix_is_shared_and_read_only(dataset20):
    preds = in_neighbor_lists(dataset20[0].prefill_graph)
    matrix = _aggregation_matrix(len(preds), preds)
    assert _aggregation_matrix(len(preds), preds) is matrix
    assert not matrix.flags.writeable
    assert np.allclose(matrix[[len(p) > 0 for p in preds]].sum(axis=1), 1.0)


def test_predict_sample_equals_manual_chaining(dataset20):
    params = init_params(7)
    params.norms = fit_norms(dataset20)
    sample = dataset20[1]
    prefill_j, total_j = predict_sample(params, sample)
    assert prefill_j == predict_prefill(
        sample.prefill_graph, sample.prefill_globals, params
    )
    gf = with_prefill_energy(sample.total_globals, prefill_j)
    assert total_j == predict_total(sample.decode_graph, gf, params)


def test_prediction_phase_validation(dataset20):
    params = init_params(7)
    params.norms = fit_norms(dataset20)
    sample = dataset20[0]
    with pytest.raises(ValueError):
        predict_prefill(sample.prefill_graph, sample.total_globals, params)
    with pytest.raises(ValueError):
        predict_total(sample.decode_graph, sample.prefill_globals, params)
    # total-phase globals without a prefill-energy slot are rejected
    with pytest.raises(ValueError):
        predict_total(sample.decode_graph, sample.total_globals, params)


# ---------------------------------------------------------------------------
# Gradients


def test_gradients_match_finite_differences_at_init(dataset20):
    params = init_params(42)
    params.norms = fit_norms(dataset20)
    prepared = _prepare(dataset20, params.norms, "prefill")
    for p in (prepared[0], prepared[3]):
        err = grad_check(params.prefill, p.h0, p.preds, p.g, p.log_target)
        assert err < 1e-4

    prepared_total = _prepare(dataset20, params.norms, "total")
    p = prepared_total[0]
    assert grad_check(params.total, p.h0, p.preds, p.g, p.log_target) < 1e-4


def test_gradients_match_after_ten_adam_steps(dataset20):
    params = init_params(42)
    params.norms = fit_norms(dataset20)
    prepared = _prepare(dataset20, params.norms, "prefill")
    # 20 samples with batch size 32 means one step per epoch
    train_tower(
        params.prefill, prepared, [], TrainConfig(epochs=10),
        np.random.default_rng(0), "prefill",
    )
    p = prepared[0]
    assert grad_check(params.prefill, p.h0, p.preds, p.g, p.log_target) < 1e-4
    # the tolerance is meaningful: a sloppy step size fails it
    assert grad_check(params.prefill, p.h0, p.preds, p.g, p.log_target, eps=1e-2) > 1e-4


def _max_rel(got, want):
    """Largest deviation relative to the reference array's largest entry."""
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _with_relabeled_prefill(dataset, i, seed=5):
    sample = dataset[i]
    order = np.random.default_rng(seed).permutation(len(sample.prefill_graph.nodes))
    out = list(dataset)
    out[i] = dataclasses.replace(
        sample, prefill_graph=_relabeled(sample.prefill_graph, order)
    )
    return out


@pytest.mark.parametrize(
    "batch, n_groups",
    [(range(16), 1), (range(16, 20), 1), (range(20), 2)],
    ids=["full batch", "ragged last batch", "two topologies"],
)
def test_batched_pass_matches_per_sample_reference(dataset20, batch, n_groups):
    samples = _with_relabeled_prefill(dataset20, 3) if n_groups == 2 else dataset20
    params = init_params(42)
    params.norms = fit_norms(samples)
    prepared = _prepare(samples, params.norms, "prefill")
    tower = params.prefill

    stacks = list(_Stacks(prepared).batches(np.array(batch)))
    assert len(stacks) == n_groups
    assert sorted(i for members, *_ in stacks for i in members) == list(batch)
    parts = [batch_loss_and_grads(tower, h0, preds, g, lt) for _, preds, h0, g, lt in stacks]
    want_loss, want_grads = gnn_reference.batch_loss_and_grads(tower, prepared, batch)
    assert _max_rel(sum(loss for loss, _ in parts), want_loss) <= 1e-12
    for name, want in want_grads.items():
        assert _max_rel(sum(g[name] for _, g in parts), want) <= 1e-12, name

    subset = [prepared[i] for i in batch]
    assert _max_rel(
        _tower_predictions(tower, _Stacks(subset)),
        gnn_reference.tower_predictions(tower, subset),
    ) <= 1e-12


@pytest.mark.parametrize("relabel", [False, True], ids=["one topology", "two topologies"])
def test_training_matches_reference_trainer(dataset20, monkeypatch, relabel):
    samples = _with_relabeled_prefill(dataset20, 3) if relabel else dataset20
    # batch size 6 over the 16-sample train split: two full batches, one ragged
    cfg = TrainConfig(epochs=2, batch_size=6)
    params, history = train(samples, cfg)
    single, single_history = train_single_phase(samples, cfg)

    monkeypatch.setattr(training, "train_tower", gnn_reference.train_tower)
    monkeypatch.setattr(baselines, "train_tower", gnn_reference.train_tower)
    ref_params, ref_history = train(samples, cfg)
    ref_single, ref_single_history = train_single_phase(samples, cfg)

    pairs = [(params.prefill, ref_params.prefill), (params.total, ref_params.total),
             (single.tower, ref_single.tower)]
    for tower, ref in pairs:
        for name, want in ref.arrays().items():
            assert _max_rel(tower.arrays()[name], want) <= 1e-9, name
    for got, want in zip(history + single_history, ref_history + ref_single_history):
        assert got.keys() == want.keys()
        for key in got:
            assert got[key] == pytest.approx(want[key], rel=1e-9, abs=0), key


def test_adam_single_step_matches_hand_formula():
    w = np.array([1.0, 2.0])
    grad = np.array([0.1, -0.2])
    adam = Adam({"w": w}, lr=0.01)
    adam.step({"w": w}, {"w": grad})
    # first step: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps)
    expected = np.array([1.0, 2.0]) - 0.01 * grad / (np.abs(grad) + 1e-8)
    assert w == pytest.approx(expected, rel=1e-12)


def test_in_place_adam_matches_reference_formula_bit_for_bit():
    rng = np.random.default_rng(3)
    shapes = {"w": (4, 5), "b": (5,), "s": (1,)}
    params = {k: rng.normal(size=shape) for k, shape in shapes.items()}
    ref_params = {k: v.copy() for k, v in params.items()}
    adam = Adam(params, lr=0.003)
    ref = gnn_reference.ReferenceAdam(ref_params, lr=0.003)
    for _ in range(50):
        grads = {
            k: rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 3)
            for k, shape in shapes.items()
        }
        adam.step(params, grads)
        ref.step(ref_params, grads)
    for k in shapes:
        assert np.array_equal(params[k], ref_params[k]), k
        assert np.array_equal(adam.m[k], ref.m[k]), k
        assert np.array_equal(adam.v[k], ref.v[k]), k


# ---------------------------------------------------------------------------
# Training loop


def test_training_is_bit_deterministic(dataset20):
    cfg = TrainConfig(epochs=2)
    params_a, history_a = train(dataset20, cfg)
    params_b, history_b = train(dataset20, cfg)
    for name, arr in params_a.prefill.arrays().items():
        assert np.array_equal(arr, params_b.prefill.arrays()[name])
    for name, arr in params_a.total.arrays().items():
        assert np.array_equal(arr, params_b.total.arrays()[name])
    assert history_a == history_b


def test_history_covers_both_towers(dataset20):
    cfg = TrainConfig(epochs=3)
    _, history = train(dataset20, cfg)
    assert len(history) == 2 * cfg.epochs
    assert [e["tower"] for e in history] == ["prefill"] * 3 + ["total"] * 3
    for entry in history:
        assert set(entry) == {"tower", "epoch", "train_loss", "val_mape", "val_eb10"}


def test_train_loss_decreases(dataset20):
    _, history = train(dataset20, TrainConfig(epochs=8))
    prefill = [e["train_loss"] for e in history if e["tower"] == "prefill"]
    total = [e["train_loss"] for e in history if e["tower"] == "total"]
    assert prefill[-1] < prefill[0]
    assert total[-1] < total[0]


def test_small_dataset_overfits():
    dataset = gen_oracle_dataset([QWEN], [RK3588], 10, noise_sigma=0.05, seed=42)
    cfg = TrainConfig(epochs=150, train_frac=0.95, val_frac=0.0)
    params, _ = train(dataset, cfg)
    metrics = evaluate_params(params, dataset)
    assert metrics["prefill"].mape < 10.0
    assert metrics["total"].mape < 10.0


def test_huge_learning_rate_raises(dataset20):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError):
            train(dataset20, TrainConfig(epochs=5, learning_rate=1e80))


def test_output_bias_starts_at_mean_log_target(dataset20):
    params = init_params(42)
    params.norms = fit_norms(dataset20)
    prepared = _prepare(dataset20, params.norms, "prefill")
    train_tower(
        params.prefill, prepared, [], TrainConfig(epochs=1, learning_rate=1e-12),
        np.random.default_rng(0), "prefill",
    )
    target_mean = np.mean([p.log_target for p in prepared])
    assert params.prefill.bh2[0] == pytest.approx(target_mean, abs=1e-9)


def test_train_rejects_tiny_datasets(dataset20):
    with pytest.raises(ValueError):
        train(dataset20[:1], TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        train_tower(
            init_params(0).prefill, [], [], TrainConfig(epochs=1),
            np.random.default_rng(0), "prefill",
        )


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(train_frac=0.9, val_frac=0.2)


# ---------------------------------------------------------------------------
# Metrics


def test_metric_values_on_hand_cases():
    truth = np.array([100.0, 100.0, 100.0, 100.0])
    assert mape(truth, truth) == 0.0
    assert error_bound_share(truth, truth) == 100.0

    nudged = truth * 1.05
    assert mape(truth, nudged) == pytest.approx(5.0, rel=1e-12)
    assert error_bound_share(truth, nudged) == 100.0

    mixed = np.array([105.0, 105.0, 150.0, 150.0])
    assert mape(truth, mixed) == pytest.approx(27.5, rel=1e-12)
    assert error_bound_share(truth, mixed) == 50.0


def test_error_bound_is_inclusive():
    assert error_bound_share(np.array([100.0]), np.array([110.0])) == 100.0
    assert error_bound_share(np.array([100.0]), np.array([110.1])) == 0.0


def test_metric_validation():
    with pytest.raises(ValueError):
        mape(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        mape(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        error_bound_share(np.array([-1.0]), np.array([1.0]))
    metrics = evaluate_predictions(np.array([2.0, 4.0]), np.array([2.0, 4.0]))
    assert (metrics.mape, metrics.eb10, metrics.n) == (0.0, 100.0, 2)


# ---------------------------------------------------------------------------
# Dataset generation


def test_generated_samples_are_well_formed(dataset20):
    for sample in dataset20:
        assert sample.device_id == "rk3588"
        assert 0 < sample.label_prefill_j < sample.label_total_j
        assert sample.prefill_graph.phase == "prefill"
        assert sample.decode_graph.phase == "decode"
        assert len(sample.prefill_graph.nodes) == 12
        assert all(n.est_time_s > 0 for n in sample.prefill_graph.nodes)
        assert all(n.est_time_s > 0 for n in sample.decode_graph.nodes)


def test_generator_is_seed_deterministic(dataset20):
    again = gen_oracle_dataset([QWEN], [RK3588], 20, noise_sigma=0.05, seed=42)
    assert [sample_to_json(s) for s in again] == [sample_to_json(s) for s in dataset20]
    other = gen_oracle_dataset([QWEN], [RK3588], 20, noise_sigma=0.05, seed=43)
    assert [s.label_total_j for s in other] != [s.label_total_j for s in dataset20]


def test_noiseless_labels_equal_oracle_energies():
    dataset = gen_oracle_dataset([QWEN], [RK3588], 3, noise_sigma=0.0, seed=1)
    for sample in dataset:
        req = Request(
            prompt_len=sample.prefill_globals.prompt_len,
            output_len=sample.prefill_globals.output_len,
        )
        clean_prefill, clean_decode = request_energy(QWEN, req, RK3588)
        assert sample.label_prefill_j == clean_prefill
        assert sample.label_total_j == clean_prefill + clean_decode


def test_generator_validation():
    assert gen_oracle_dataset([QWEN], [RK3588], 0) == []
    with pytest.raises(ValueError):
        gen_oracle_dataset([QWEN], [RK3588], -1)
    with pytest.raises(ValueError):
        gen_oracle_dataset([QWEN], [RK3588], 2, noise_sigma=-0.1)
    with pytest.raises(ValueError):
        gen_oracle_dataset([], [RK3588], 2)


def test_sample_label_validation(dataset20):
    with pytest.raises(ValueError):
        dataclasses.replace(dataset20[0], label_prefill_j=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(dataset20[0], label_prefill_j=dataset20[0].label_total_j * 2)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            dataclasses.replace(dataset20[0], label_total_j=bad)
        with pytest.raises(ValueError):
            dataclasses.replace(dataset20[0], label_prefill_j=bad, label_total_j=bad)


def test_overflowing_noise_is_a_user_error():
    with pytest.raises(UserInputError, match="noise_sigma"):
        gen_oracle_dataset([QWEN], [RK3588], 3, noise_sigma=1e308, seed=42)


# ---------------------------------------------------------------------------
# Serialization


def test_dataset_jsonl_round_trip(tmp_path, dataset20):
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    write_dataset_jsonl(path_a, dataset20)
    write_dataset_jsonl(path_b, dataset20)
    assert path_a.read_bytes() == path_b.read_bytes()
    loaded = read_dataset_jsonl(path_a)
    assert [sample_to_json(s) for s in loaded] == [sample_to_json(s) for s in dataset20]


def test_empty_dataset_round_trip(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_dataset_jsonl(path, [])
    assert path.read_bytes() == b""
    assert read_dataset_jsonl(path) == []


def test_dataset_errors_carry_line_numbers(tmp_path, dataset20):
    good = json.dumps(sample_to_json(dataset20[0]), sort_keys=True)
    bad_json = tmp_path / "bad_json.jsonl"
    bad_json.write_text(good + "\n{not json\n")
    with pytest.raises(UserInputError, match=r":2:"):
        read_dataset_jsonl(bad_json)

    bad_sample = tmp_path / "bad_sample.jsonl"
    bad_sample.write_text(json.dumps({"device_id": "x"}) + "\n")
    with pytest.raises(UserInputError, match=r":1:"):
        read_dataset_jsonl(bad_sample)

    with pytest.raises(UserInputError):
        read_dataset_jsonl(tmp_path / "missing.jsonl")


def test_params_json_round_trip(tmp_path, dataset20):
    params = init_params(7)
    params.norms = fit_norms(dataset20)
    path = tmp_path / "params.json"
    save_params_json(path, params, meta={"epochs": 3, "seed": 7})
    loaded, meta = load_params_json(path)
    assert meta == {"epochs": 3, "seed": 7}
    for tower, other in ((params.prefill, loaded.prefill), (params.total, loaded.total)):
        for name, arr in tower.arrays().items():
            assert np.array_equal(arr, other.arrays()[name])
    assert np.array_equal(params.norms.glob_mu_total, loaded.norms.glob_mu_total)
    # bit-exact parameters give bit-exact predictions
    assert predict_sample(loaded, dataset20[0]) == predict_sample(params, dataset20[0])


def test_params_json_rejects_malformed_docs(tmp_path):
    with pytest.raises(UserInputError):
        params_from_json({"prefill": {}})
    missing = tmp_path / "missing.json"
    with pytest.raises(UserInputError):
        load_params_json(missing)
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    with pytest.raises(UserInputError):
        load_params_json(broken)


# ---------------------------------------------------------------------------
# Splits and norms


def test_split_sizes_and_determinism():
    tr, va, te = split_indices(100, 0.8, 0.1, seed=42)
    assert (len(tr), len(va), len(te)) == (80, 10, 10)
    tr2, va2, te2 = split_indices(100, 0.8, 0.1, seed=42)
    assert np.array_equal(tr, tr2) and np.array_equal(va, va2) and np.array_equal(te, te2)
    assert not np.array_equal(tr, split_indices(100, 0.8, 0.1, seed=43)[0])
    with pytest.raises(ValueError):
        split_indices(100, 0.0, 0.1, seed=0)
    with pytest.raises(ValueError):
        split_indices(100, 0.8, 0.3, seed=0)


@given(
    n=st.integers(2, 200),
    train_frac=st.floats(0.2, 0.75),
    val_frac=st.floats(0.0, 0.2),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_split_is_a_partition(n, train_frac, val_frac, seed):
    tr, va, te = split_indices(n, train_frac, val_frac, seed)
    assert sorted(np.concatenate([tr, va, te]).tolist()) == list(range(n))
    assert len(tr) == int(round(n * train_frac))
    assert len(va) == int(round(n * val_frac))


def test_norms_give_unit_scale_and_handle_constants(dataset20):
    norms = fit_norms(dataset20)
    assert np.all(norms.node_sd > 0)
    assert np.all(norms.glob_sd_total > 0)
    # zero-variance columns (here: all of them) fall back to sd = 1
    raw = np.abs(np.random.default_rng(0).normal(size=(4, NODE_FEATURE_DIM)))
    glob = np.abs(np.random.default_rng(1).normal(size=(1, GLOBAL_DIM)))
    constant = fit_feature_norms(
        [raw[:1]] * 3, np.repeat(glob, 3, axis=0), np.ones((3, GLOBAL_DIM + 1))
    )
    assert np.all(constant.node_sd == 1.0)
    assert np.all(constant.glob_sd_prefill == 1.0)
    assert np.all(constant.glob_sd_total == 1.0)
    assert constant.glob_mu_prefill == pytest.approx(np.log1p(glob[0]))


# ---------------------------------------------------------------------------
# Baselines


def test_ridge_baseline_beats_constant_prediction(dataset20):
    ridge = fit_ridge_globals(dataset20)
    preds = ridge.predict(dataset20)
    assert np.all(preds > 0)
    truths = np.array([s.label_total_j for s in dataset20])
    constant = np.full_like(truths, truths.mean())
    assert mape(truths, preds) < mape(truths, constant)
    assert evaluate_baseline_total(preds, dataset20).n == 20


def test_single_phase_baseline_runs_and_predicts(dataset20):
    params, history = train_single_phase(dataset20, TrainConfig(epochs=3))
    assert [e["tower"] for e in history] == ["single"] * 3
    preds = predict_single_phase(params, dataset20[:5])
    assert preds.shape == (5,)
    assert np.all(preds > 0) and np.all(np.isfinite(preds))
    # the single tower reads no total-phase globals, so none are fitted
    assert np.array_equal(params.norms.glob_mu_total, identity_norms().glob_mu_total)
    assert np.array_equal(params.norms.glob_sd_total, identity_norms().glob_sd_total)
