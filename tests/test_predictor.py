"""Energy predictor: forward/backward correctness, training behavior, data I/O."""

import base64
import json
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from co2meter import assets, workload
from co2meter.errors import TrainingDivergedError, UserInputError, replace
from co2meter.predictor import (
    GLOBAL_DIM,
    HIDDEN_DIM,
    NODE_FEATURE_DIM,
    Adam,
    GraphSample,
    TowerParams,
    TrainConfig,
    error_bound_share,
    evaluate_baseline_total,
    evaluate_params,
    evaluate_predictions,
    featurize,
    fit_ridge_globals,
    forward_tower,
    backward_tower,
    gen_oracle_dataset,
    grad_check,
    init_params,
    init_tower,
    load_params_json,
    make_sample,
    mape,
    node_feature_matrix,
    node_feature_tensor,
    params_from_json,
    params_to_json,
    predict_prefill,
    predict_sample,
    predict_single_phase,
    predict_total,
    read_dataset_jsonl,
    request_energy,
    sample_regime_mixed_request,
    sample_table,
    sample_to_json,
    table_rows,
    save_params_json,
    split_indices,
    sample_trace_request,
    train,
    train_single_phase,
    write_dataset_jsonl,
)
import gnn_reference
from oracle_reference import roofline_time
from test_oracle import configs as random_configs
from test_oracle import devices as random_devices
from test_oracle import requests as random_requests
from co2meter.predictor import training
from co2meter.predictor.gnn import (
    AGGREGATION,
    FeatureNorms,
    Workspace,
    backward_batch,
    c0_stack,
    fit_feature_norms,
    forward_batch,
    gathered_loss_and_grads,
    identity_norms,
)
from co2meter.predictor.training import (
    _prepare,
    _tower_predictions,
    fit_norms,
    train_tower,
)
from co2meter.workload import (
    LAYER_PREDS,
    LayerGraph,
    Request,
    with_prefill_energy,
)

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
    h0 = rng.normal(size=(len(LAYER_PREDS), 2))
    g = np.array([0.7])
    y, _ = forward_tower(tower, h0, LAYER_PREDS, g)
    assert y == pytest.approx(_reference_forward(tower, h0, LAYER_PREDS, g), rel=1e-12)


@pytest.mark.parametrize("preds", [
    LAYER_PREDS[:-1],
    ((),) * len(LAYER_PREDS),
    ((1,), *LAYER_PREDS[1:]),
], ids=["eleven nodes", "no edges", "one edge moved"])
def test_single_sample_passes_refuse_a_graph_other_than_the_decoder_layer(preds):
    tower = init_tower(np.random.default_rng(0), NODE_FEATURE_DIM, GLOBAL_DIM)
    h0 = np.zeros((len(preds), NODE_FEATURE_DIM))
    g = np.zeros(GLOBAL_DIM)
    with pytest.raises(ValueError, match="decoder-layer topology"):
        forward_tower(tower, h0, preds, g)
    with pytest.raises(ValueError, match="decoder-layer topology"):
        grad_check(tower, h0, preds, g, 0.0)
    # the decoder layer's own, as lists, passes
    assert np.isfinite(forward_tower(tower, np.zeros((12, NODE_FEATURE_DIM)),
                                     [list(ps) for ps in LAYER_PREDS], g)[0])


@pytest.mark.parametrize("nodes", [(11,), (13,), ()], ids=["eleven nodes", "thirteen", "2-D"])
def test_batched_passes_refuse_a_stack_that_is_not_the_decoder_layer(nodes):
    """A node axis other than the layer's 12 is refused by name, not by a
    shape mismatch inside the aggregation matmul."""
    tower = init_tower(np.random.default_rng(0), NODE_FEATURE_DIM, GLOBAL_DIM)
    named = r"the decoder layer \(workload\.LAYER_PREDS\) has 12 nodes"
    with pytest.raises(ValueError, match=named):
        forward_batch(tower, np.zeros((2, *nodes, NODE_FEATURE_DIM)), np.zeros((2, GLOBAL_DIM)))
    with pytest.raises(ValueError, match=named):
        Workspace.allocate(tower, 2).gather(np.zeros((2, *nodes, 2 * NODE_FEATURE_DIM)),
                                            np.arange(2))


@given(
    st.integers(1, 20),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 0.9),
    st.sampled_from([1e-3, 1.0, 1e3]),
)
@settings(max_examples=60, deadline=None)
def test_c0_stack_holds_h0_and_the_reference_neighbor_means(size, seed, zero_share, scale):
    rng = np.random.default_rng(seed)
    h0 = scale * rng.normal(size=(size, 12, NODE_FEATURE_DIM))
    h0[rng.random(h0.shape) < zero_share] = 0.0
    stack = c0_stack(h0)
    assert stack.shape == (size, 12, 2 * NODE_FEATURE_DIM)
    junk = np.full((size + 1, 12, 2 * NODE_FEATURE_DIM), np.nan)
    assert np.shares_memory(c0_stack(h0, out=junk[1:]), junk)
    for s in range(size):
        assert np.array_equal(stack[s, :, :NODE_FEATURE_DIM], h0[s])
        assert np.array_equal(stack[s, :, NODE_FEATURE_DIM:],
                              gnn_reference.neighbor_mean(h0[s], LAYER_PREDS))
        # built whole, into a workspace-like view, or sample by sample: the same bits
        assert np.array_equal(stack[s], c0_stack(h0[s:s + 1])[0])
        assert np.array_equal(stack[s], junk[s + 1])


def test_aggregation_matrix_is_the_read_only_layer_mean():
    assert AGGREGATION.shape == (len(LAYER_PREDS),) * 2
    assert not AGGREGATION.flags.writeable
    with pytest.raises(ValueError):
        AGGREGATION[0, 0] = 1.0
    has_preds = [len(ps) > 0 for ps in LAYER_PREDS]
    assert np.allclose(AGGREGATION.sum(axis=1)[has_preds], 1.0)
    assert not AGGREGATION[[not h for h in has_preds]].any()
    assert np.array_equal(AGGREGATION, gnn_reference.aggregation_matrix(12, LAYER_PREDS))


@given(
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 0.9),
    st.sampled_from([1e-3, 1.0, 1e3]),
)
@settings(max_examples=60, deadline=None)
def test_batched_pass_equals_reference_row_by_row(batch, seed, zero_share, scale):
    rng = np.random.default_rng(seed)
    tower = init_tower(rng, NODE_FEATURE_DIM, GLOBAL_DIM)
    tower.b1[:] = rng.normal(size=HIDDEN_DIM)
    tower.b2[:] = rng.normal(size=HIDDEN_DIM)
    # signed entries, a share of them exactly zero
    h0 = scale * rng.normal(size=(batch, 12, NODE_FEATURE_DIM))
    h0[rng.random(h0.shape) < zero_share] = 0.0
    g = rng.normal(size=(batch, GLOBAL_DIM))
    dy = rng.normal(size=batch)
    y, cache = forward_batch(tower, h0, g)
    want_y, want_grads = [], []
    for b in range(batch):
        ref_y, ref_cache = gnn_reference.forward_tower(tower, h0[b], LAYER_PREDS, g[b])
        want_y.append(ref_y)
        want_grads.append(gnn_reference.backward_tower(tower, ref_cache, dy[b]))
        # each row as a batch of one: the reference's bits
        row_y, row_cache = forward_batch(tower, h0[b:b + 1], g[b:b + 1])
        assert row_y[0] == ref_y
        grads = tower.views(backward_batch(tower, row_cache, dy[b:b + 1]))
        for k, want in want_grads[-1].items():
            assert np.array_equal(grads[k], want), (b, k)
        # in the stack, both neighbor means are the reference's sorted ones
        assert np.array_equal(cache.c0[b], ref_cache["c0"])
        assert np.array_equal(
            cache.c1[b, :, HIDDEN_DIM:],
            gnn_reference.neighbor_mean(cache.h1[b], LAYER_PREDS),
        )
    # the stack's dense layers are one matmul over batch * 12 rows, whose BLAS
    # blocking may move the last bits
    assert _max_rel(y, want_y) <= 1e-12
    grads = tower.views(backward_batch(tower, cache, dy))
    for k in grads:
        assert _max_rel(grads[k], sum(w[k] for w in want_grads)) <= 1e-12, k


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 9), min_size=1, max_size=4),
    st.sampled_from([np.nan, -np.inf, 0.0, 1.0]),
)
@settings(max_examples=40, deadline=None)
def test_reused_workspace_pass_is_bit_identical_to_a_fresh_one(seed, sizes, junk):
    rng = np.random.default_rng(seed)
    tower = init_tower(rng, NODE_FEATURE_DIM, GLOBAL_DIM)
    tower.b1[:] = rng.normal(size=HIDDEN_DIM)
    tower.b2[:] = rng.normal(size=HIDDEN_DIM)
    # sized to the largest batch, so the others use its leading rows, and
    # filled with junk, which no pass may read
    workspace = Workspace.allocate(tower, max(sizes))
    for field in workspace._fields:
        buffer = getattr(workspace, field)
        if isinstance(buffer, np.ndarray):
            buffer[...] = junk
    for batch in sizes + [max(sizes), min(sizes)]:
        h0 = rng.normal(size=(batch, 12, NODE_FEATURE_DIM))
        h0[rng.random(h0.shape) < 0.3] = 0.0
        g = rng.normal(size=(batch, GLOBAL_DIM))
        dy = rng.normal(size=batch)
        y, cache = forward_batch(tower, h0, g, workspace)
        grad = backward_batch(tower, cache, dy)
        want_y, want_cache = forward_batch(tower, h0, g)
        assert np.array_equal(y, want_y), batch
        assert np.array_equal(grad, backward_batch(tower, want_cache, dy)), batch
        assert np.shares_memory(grad, workspace.grad)
        assert np.shares_memory(cache.c1, workspace.c1)


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 9), min_size=1, max_size=4),
)
@settings(max_examples=30, deadline=None)
def test_gathered_batch_is_bit_identical_to_a_copied_one(seed, sizes):
    rng = np.random.default_rng(seed)
    tower = init_tower(rng, NODE_FEATURE_DIM, GLOBAL_DIM)
    h0 = rng.normal(size=(12, 12, NODE_FEATURE_DIM))
    g = rng.normal(size=(12, GLOBAL_DIM))
    log_target = rng.normal(size=12)
    stack = c0_stack(h0)
    workspace = Workspace.allocate(tower, max(sizes))
    for size in sizes:
        rows = np.sort(rng.choice(len(h0), size, replace=False))
        loss, grad = gathered_loss_and_grads(
            tower, workspace.gather(stack, rows), g[rows], log_target[rows]
        )
        y, cache = forward_batch(tower, h0[rows], g[rows])
        err = y - log_target[rows]
        want_loss, want_grad = float(err @ err), backward_batch(tower, cache, 2.0 * err)
        assert loss == want_loss, size
        assert np.array_equal(grad, want_grad), size


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


def test_predict_sample_equals_manual_chaining(dataset20):
    params = init_params(7)
    params.norms = fit_norms(dataset20)
    # a labelled sample, and label-free inputs as the CLI builds them
    unlabelled = featurize(QWEN, Request(prompt_len=200, output_len=50), RK3588)
    for sample in (dataset20[1], unlabelled):
        prefill_j, total_j = predict_sample(params, sample)
        assert prefill_j == predict_prefill(
            sample.prefill_graph, sample.prefill_globals, params
        )
        gf = with_prefill_energy(sample.total_globals, prefill_j)
        assert total_j == predict_total(sample.decode_graph, gf, params)


@pytest.mark.parametrize("relabel", [False, True], ids=["one topology", "two topologies"])
def test_evaluate_params_equals_per_sample_chain(dataset20, relabel):
    samples = _with_relabeled_prefill(dataset20, 3) if relabel else dataset20
    params, _ = train(samples, TrainConfig(epochs=2))
    metrics = evaluate_params(params, samples)
    # the reference encodes each graph in its own node order
    want_preds = np.array([gnn_reference.predict_sample(params, s) for s in samples]).T
    table = training.sample_table(samples)
    assert table["prefill_graph"].shape == (20, 12, NODE_FEATURE_DIM)
    # the relabelled sample is stored in canonical node order: its table rows
    # and predictions are the canonical sample's
    canonical = training.sample_table(dataset20)
    for field, rows in table.items():
        assert np.array_equal(rows, canonical[field]), field
    for got, want in zip(training._predict_chain(params, table),
                         training._predict_chain(params, canonical)):
        assert np.array_equal(got, want)
    for got, want in zip(training._predict_chain(params, table), want_preds):
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12
    for phase, preds in zip(("prefill", "total"), want_preds):
        truths = np.array([getattr(s, f"label_{phase}_j") for s in samples])
        want = evaluate_predictions(truths, preds)
        assert metrics[phase].mape == pytest.approx(want.mape, rel=1e-12, abs=0)
        assert (metrics[phase].eb10, metrics[phase].n) == (want.eb10, want.n)


def test_single_sample_pass_is_bit_identical_to_per_sample_reference(dataset20):
    params, _ = train(dataset20, TrainConfig(epochs=2))
    for name, tower in (("prefill", params.prefill), ("total", params.total)):
        for p in _prepare(dataset20, params.norms, name):
            y, cache = forward_tower(tower, p.h0, p.preds, p.g)
            want_y, want_cache = gnn_reference.forward_tower(tower, p.h0, p.preds, p.g)
            assert y == want_y
            grads = tower.views(backward_tower(tower, cache, 2.0 * (y - p.log_target)))
            want = gnn_reference.backward_tower(tower, want_cache, 2.0 * (y - p.log_target))
            for k in want:
                assert np.array_equal(grads[k], want[k]), (name, k)
    for s in dataset20:
        assert predict_sample(params, s) == gnn_reference.predict_sample(params, s)


def _assert_same_norms(got, want):
    for field in got._fields:
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def test_tower_table_reproduces_per_sample_encoding(dataset20):
    norms = fit_norms(dataset20)
    _assert_same_norms(norms, gnn_reference.fit_norms(dataset20))
    single, _ = train_single_phase(dataset20, TrainConfig(epochs=1))
    train_idx, _, _ = split_indices(20, 0.8, 0.1, seed=42)
    _assert_same_norms(
        single.norms, gnn_reference.fit_norms_single([dataset20[i] for i in train_idx])
    )
    for tower, graph, gf, slot, label in (
        ("prefill", "prefill_graph", "prefill_globals", "prefill", "label_prefill_j"),
        ("total", "decode_graph", "total_globals", "total", "label_total_j"),
        ("single", "prefill_graph", "total_globals", "prefill", "label_total_j"),
    ):
        for s, p in zip(dataset20, _prepare(dataset20, norms, tower)):
            h0, preds, g = gnn_reference.encode_inputs(
                getattr(s, graph), getattr(s, gf), norms, slot, s.label_prefill_j
            )
            assert np.array_equal(p.h0, h0) and np.array_equal(p.g, g), tower
            assert p.preds == preds
            assert (p.target_j, p.log_target) == (getattr(s, label), np.log(getattr(s, label)))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(workload.GRAPH_PHASES), st.integers(1, 4096),
                          st.integers(1, 512), st.sampled_from(("rk3588", "agx_orin"))),
                max_size=6))
def test_node_feature_tensor_equals_element_wise_reference(requests):
    graphs = [
        workload.apply_roofline(
            workload.build_layer_graph(QWEN, Request(prompt, output), phase),
            assets.load_device(dev),
        )
        for phase, prompt, output, dev in requests
    ]
    got = node_feature_tensor(graphs)
    assert got.shape == (len(graphs), 12, NODE_FEATURE_DIM)
    want = [gnn_reference.node_feature_matrix(g) for g in graphs]
    assert got.tobytes() == np.array(want).reshape(got.shape).tobytes()
    for graph, matrix in zip(graphs, want):
        assert node_feature_matrix(graph).tobytes() == matrix.tobytes()


def test_train_and_evaluate_featurize_each_graph_once(dataset20, monkeypatch):
    featurized = []

    def counting(graphs):
        featurized.extend(map(id, graphs))
        return node_feature_tensor(graphs)

    monkeypatch.setattr(training, "node_feature_tensor", counting)
    cfg = TrainConfig(epochs=2)
    params, _ = train(dataset20, cfg)
    _, _, test_idx = split_indices(20, cfg.train_frac, cfg.val_frac, cfg.seed)
    evaluate_params(params, [dataset20[i] for i in test_idx])
    graphs = [id(g) for s in dataset20 for g in (s.prefill_graph, s.decode_graph)]
    assert sorted(featurized) == sorted(graphs)


def test_ridge_and_baseline_metrics_featurize_no_graph_of_a_list(dataset20, monkeypatch):
    """Given samples, the ridge fit and prediction and the baseline metrics
    build only the columns they read, and equal their table results bit for bit."""
    table = sample_table(dataset20)
    ridge = fit_ridge_globals(table)
    want = (ridge.predict(table), evaluate_baseline_total(ridge.predict(table), table))
    featurized = []
    monkeypatch.setattr(training, "node_feature_tensor", featurized.append)
    got_ridge = fit_ridge_globals(dataset20)
    got = (got_ridge.predict(dataset20), evaluate_baseline_total(want[0], dataset20))
    assert featurized == []
    for name in ("weights", "mu", "sd"):
        assert getattr(got_ridge, name).tobytes() == getattr(ridge, name).tobytes()
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1] == want[1]


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


class _ReferenceRow(NamedTuple):
    h0: np.ndarray
    preds: tuple
    g: np.ndarray
    log_target: float


def _with_relabeled_prefill(dataset, i, seed=5):
    """The dataset with sample i's prefill graph relabelled: its edge list
    differs from every other graph's (the "two topologies" cases)."""
    sample = dataset[i]
    order = np.random.default_rng(seed).permutation(len(sample.prefill_graph.nodes))
    out = list(dataset)
    out[i] = replace(
        sample, prefill_graph=_relabeled(sample.prefill_graph, order)
    )
    return out


@pytest.mark.parametrize(
    "batch, relabel",
    [(range(16), False), (range(16, 20), False), (range(20), True)],
    ids=["full batch", "ragged last batch", "two topologies"],
)
def test_batched_pass_matches_per_sample_reference(dataset20, batch, relabel):
    samples = _with_relabeled_prefill(dataset20, 3) if relabel else dataset20
    params = init_params(42)
    params.norms = fit_norms(samples)
    prepared = _prepare(samples, params.norms, "prefill")
    tower = params.prefill
    # the relabelled sample is stored in canonical node order: its table rows
    # and predictions are the canonical sample's
    assert prepared.h0.shape == (20, 12, NODE_FEATURE_DIM) and prepared.preds == LAYER_PREDS
    canonical = _prepare(dataset20, params.norms, "prefill")
    assert np.array_equal(prepared.h0, canonical.h0)
    assert np.array_equal(prepared.g, canonical.g)
    assert np.array_equal(_tower_predictions(tower, prepared.h0, prepared.g),
                          _tower_predictions(tower, canonical.h0, canonical.g))

    # the reference encodes each graph in its own node order
    reference = [
        _ReferenceRow(
            *gnn_reference.encode_inputs(s.prefill_graph, s.prefill_globals,
                                         params.norms, "prefill"),
            np.log(s.label_prefill_j),
        )
        for s in samples
    ]
    assert all(r.preds == LAYER_PREDS for r in reference)
    rows = np.array(batch)
    workspace = Workspace.allocate(tower, len(rows))
    loss, grads = gathered_loss_and_grads(
        tower, workspace.gather(prepared.c0, rows),
        prepared.g[rows], prepared.log_target[rows],
    )
    want_loss, want_grads = gnn_reference.batch_loss_and_grads(tower, reference, batch)
    assert _max_rel(loss, want_loss) <= 1e-12
    for name, want in want_grads.items():
        assert _max_rel(tower.views(grads)[name], want) <= 1e-12, name

    assert _max_rel(
        _tower_predictions(tower, prepared.h0[rows], prepared.g[rows]),
        gnn_reference.tower_predictions(tower, [reference[i] for i in batch]),
    ) <= 1e-12


@pytest.mark.parametrize("relabel", [False, True], ids=["one topology", "two topologies"])
def test_training_matches_reference_trainer(dataset20, monkeypatch, relabel):
    samples = _with_relabeled_prefill(dataset20, 3) if relabel else dataset20
    # batch size 6 over the 16-sample train split: two full batches, one ragged
    cfg = TrainConfig(epochs=2, batch_size=6)
    params, history = train(samples, cfg)
    single, single_history = train_single_phase(samples, cfg)
    if relabel:
        # the relabelled sample is stored in canonical order: same bits as unrelabelled
        canonical, canonical_history = train(dataset20, cfg)
        assert canonical_history == history
        assert params_to_json(canonical) == params_to_json(params)

    monkeypatch.setattr(training, "train_tower", gnn_reference.train_tower)
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


def test_flat_adam_equals_adam_over_the_named_arrays():
    rng = np.random.default_rng(5)
    tower = init_tower(rng, NODE_FEATURE_DIM, GLOBAL_DIM)
    named = TowerParams(**tower.arrays())
    flat_adam = Adam({"flat": tower.flat}, lr=0.003)
    named_adam = Adam(named.arrays(), lr=0.003)
    for _ in range(30):
        grad = rng.normal(size=tower.n_params()) * 10.0 ** rng.uniform(-8, 3)
        flat_adam.step({"flat": tower.flat}, {"flat": grad})
        named_adam.step(named.arrays(), tower.views(grad))
    assert np.array_equal(tower.flat, named.flat)
    for state, named_state in ((flat_adam.m, named_adam.m), (flat_adam.v, named_adam.v)):
        assert np.array_equal(state["flat"], np.concatenate(
            [named_state[k].ravel() for k in tower.arrays()]))


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
    # the trainer keeps its overflow warnings to itself
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
    # the split rule is split_indices' own
    for train_frac, val_frac in ((0.9, 0.2), (1.5, 0.0)):
        with pytest.raises(ValueError, match="invalid split fractions"):
            TrainConfig(train_frac=train_frac, val_frac=val_frac)
    TrainConfig(train_frac=1.0, val_frac=0.0)
    # a fraction outside its own range, NaN included, is named
    for train_frac, val_frac, text in (
        (0.0, 0.1, "train_frac must be finite and positive, got 0.0"),
        (float("nan"), 0.1, "train_frac must be finite and positive, got nan"),
        (0.8, -0.1, "val_frac must be finite and >= 0, got -0.1"),
        (0.8, float("nan"), "val_frac must be finite and >= 0, got nan"),
    ):
        with pytest.raises(ValueError) as exc:
            TrainConfig(train_frac=train_frac, val_frac=val_frac)
        assert str(exc.value) == text


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
        replace(dataset20[0], label_prefill_j=0.0)
    with pytest.raises(ValueError):
        replace(dataset20[0], label_prefill_j=dataset20[0].label_total_j * 2)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            replace(dataset20[0], label_total_j=bad)
        with pytest.raises(ValueError):
            replace(dataset20[0], label_prefill_j=bad, label_total_j=bad)


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

    not_an_object = tmp_path / "list.jsonl"
    not_an_object.write_text(good + "\n[]\n")
    with pytest.raises(UserInputError, match=r":2: malformed dataset line: dataset line is "
                       r"not a JSON object"):
        read_dataset_jsonl(not_an_object)

    with pytest.raises(UserInputError):
        read_dataset_jsonl(tmp_path / "missing.jsonl")


def test_a_line_is_split_only_at_newlines(tmp_path, dataset20):
    """JSON text may hold U+2028 and the other separators `str.splitlines`
    splits at, unescaped, in a name; CRLF line ends read too."""
    doc = sample_to_json(dataset20[0])
    doc["config"]["name"] = "qwen\u2028custom\x85"
    path = tmp_path / "names.jsonl"
    path.write_text(json.dumps(doc, ensure_ascii=False) + "\r\n", encoding="utf-8")
    [sample] = read_dataset_jsonl(path)
    assert sample.config == replace(QWEN, name="qwen\u2028custom\x85")


def test_loaded_graphs_skip_the_topology_check(tmp_path, dataset20, monkeypatch):
    """Reading builds graphs from `featurize`'s rows: no topology check and
    no `KernelNode`."""
    checked, nodes = [], []
    post_init = workload.KernelNode.__post_init__
    monkeypatch.setattr(workload, "_layer_slots", lambda *a: checked.append(a))
    monkeypatch.setattr(workload.KernelNode, "__post_init__",
                        lambda self: nodes.append(self) or post_init(self))
    path = tmp_path / "round_trip.jsonl"
    write_dataset_jsonl(path, dataset20)
    assert read_dataset_jsonl(path) == dataset20
    assert checked == nodes == []


_CONFIG_NAMES = tuple(assets.list_assets("llm_configs"))
_DEVICE_NAMES = tuple(assets.list_assets("devices"))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(_CONFIG_NAMES + ("file",)), min_size=1, max_size=4, unique=True),
    st.lists(st.sampled_from(_DEVICE_NAMES), min_size=1, max_size=4, unique=True),
    st.sampled_from([sample_trace_request, sample_regime_mixed_request]),
    st.integers(0, 12),
)
def test_dataset_files_round_trip_every_sample(tmp_path_factory, seed, config_names,
                                               device_names, sampler, n):
    """`read_dataset_jsonl(write_dataset_jsonl(s)) == s` over the bundled
    configs and devices, both samplers, and a config file that takes a
    bundled name with other numbers: a line holds its config, not the name."""
    tmp = tmp_path_factory.mktemp("v3")
    doc = {**json.loads((assets.asset_root() / "llm_configs" / "qwen15-05b.json").read_text()),
           "name": "qwen15-05b", "num_layers": 7, "ffn_dim": 1000}
    (tmp / "qwen15-05b.json").write_text(json.dumps(doc))
    configs = [assets.load_llm_config(str(tmp / "qwen15-05b.json")) if name == "file"
               else assets.load_llm_config(name) for name in config_names]
    devices = [assets.load_device(name) for name in device_names]
    samples = gen_oracle_dataset(configs, devices, n, seed=seed, request_sampler=sampler)
    path = tmp / "data.jsonl"
    write_dataset_jsonl(path, samples)
    loaded = read_dataset_jsonl(path)
    assert loaded == samples
    write_dataset_jsonl(tmp / "again.jsonl", loaded)
    assert (tmp / "again.jsonl").read_bytes() == path.read_bytes()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(random_configs(), random_devices(), random_requests),
             min_size=1, max_size=4),
    st.permutations(range(12)),
    st.integers(0, 2**32 - 1),
)
def test_row_backed_samples_match_the_node_reference(tmp_path_factory, picks, order, seed):
    """Dataset files round-trip samples exactly; `sample_table` equals, bit
    for bit, node features read off `apply_roofline(build_layer_graph(...))`
    nodes one element at a time, with `roofline_time` per node; and a
    relabelled node graph equals the row-backed one."""
    rng = np.random.default_rng(seed)
    samples = [make_sample(cfg, req, dev, rng, 0.05) for cfg, dev, req in picks]
    path = tmp_path_factory.mktemp("v3") / "data.jsonl"
    write_dataset_jsonl(path, samples)
    assert read_dataset_jsonl(path) == samples

    table = sample_table(samples)
    for field, phase in (("prefill_graph", "prefill"), ("decode_graph", "decode")):
        want = []
        for cfg, dev, req in picks:
            graph = workload.apply_roofline(workload.build_layer_graph(cfg, req, phase), dev)
            assert [n.est_time_s for n in graph.nodes] == [
                roofline_time(n, dev) for n in graph.nodes]
            want.append(gnn_reference.node_feature_matrix(graph))
        assert table[field].tobytes() == np.array(want).tobytes()

    for sample in samples:
        for graph in (sample.prefill_graph, sample.decode_graph):
            assert _relabeled(graph, np.array(order)) == graph


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


def test_towers_keep_their_arrays_in_one_flat_buffer():
    params = init_params(7)
    doc = json.dumps(params_to_json(params), sort_keys=True)
    loaded = params_from_json(json.loads(doc))
    copied = TowerParams(**params.prefill.arrays())
    for tower in (params.prefill, params.total, loaded.prefill, loaded.total, copied):
        assert tower.flat.dtype == np.float64 and tower.flat.size == tower.n_params()
        for name, arr in tower.arrays().items():
            assert np.shares_memory(arr, tower.flat), name
        assert np.array_equal(
            tower.flat, np.concatenate([a.ravel() for a in tower.arrays().values()])
        )
    assert not np.shares_memory(copied.flat, params.prefill.flat)
    # a write through a named array lands in the buffer
    copied.w2[3, 5] = 7.0
    assert copied.flat[copied.w1.size + copied.b1.size + 3 * copied.w2.shape[1] + 5] == 7.0
    assert json.dumps(params_to_json(loaded), sort_keys=True) == doc
    # a params file stores each tower as the bytes of its buffer
    for name in ("prefill", "total"):
        flat = getattr(params, name).flat
        assert json.loads(doc)[name] == base64.b64encode(flat.astype("<f8").tobytes()).decode()


# finite float64 values the text format could get wrong: signed zeros,
# subnormals and the ends of the range
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072e-308,
                1e308, -1e308, np.finfo(float).max, -np.finfo(float).max)


@given(
    seed=st.integers(0, 2**32 - 1),
    edges=st.lists(
        st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1, max_size=40,
    ),
)
@settings(max_examples=25, deadline=None)
def test_params_file_round_trips_every_bit(tmp_path_factory, seed, edges):
    rng = np.random.default_rng(seed)
    params = init_params(seed)
    arrays = [params.prefill.flat, params.total.flat,
              *(getattr(params.norms, f) for f in FeatureNorms._fields)]
    for arr in arrays:
        # random bit patterns span every exponent, subnormals included
        values = rng.integers(0, 2**64, size=arr.size, dtype=np.uint64).view(np.float64)
        values[~np.isfinite(values)] = -0.0
        at = rng.integers(0, arr.size, size=len(edges))
        values[at] = edges
        arr[:] = values
    path = tmp_path_factory.mktemp("params") / "params.json"
    save_params_json(path, params, meta={"seed": seed})
    loaded, meta = load_params_json(path)
    assert meta == {"seed": seed}
    reloaded = [loaded.prefill.flat, loaded.total.flat,
                *(getattr(loaded.norms, f) for f in FeatureNorms._fields)]
    for want, got in zip(arrays, reloaded):
        assert got.dtype == np.float64 and got.flags.writeable
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for name in ("prefill", "total"):
        tower = getattr(loaded, name)
        assert all(np.shares_memory(a, tower.flat) for a in tower.arrays().values())


@pytest.mark.parametrize("where", ["total", "norms.glob_sd_prefill"])
def test_params_writer_and_reader_refuse_non_finite_values(tmp_path, where):
    params = init_params(3)
    doc = params_to_json(params)
    arr = params.total.flat if where == "total" else params.norms.glob_sd_prefill
    arr[2] = np.inf
    path = tmp_path / "params.json"
    with pytest.raises(UserInputError) as written:
        save_params_json(path, params)
    assert not path.exists()
    # the same values, smuggled past the writer, meet the same message
    *outer, key = where.split(".")
    (doc[outer[0]] if outer else doc)[key] = base64.b64encode(arr.tobytes()).decode()
    with pytest.raises(UserInputError) as read:
        params_from_json(doc)
    assert str(written.value) == str(read.value)
    assert where in str(read.value) and "non-finite" in str(read.value)


def test_params_json_rejects_malformed_docs(tmp_path):
    with pytest.raises(UserInputError):
        params_from_json({"prefill": {}})
    good = params_to_json(init_params(1))
    for key, value in (("format", "other"), ("version", 99), ("version", 2.0),
                       ("hidden_dim", 3), ("hidden_dim", 64.0), ("num_rounds", 1)):
        with pytest.raises(UserInputError, match=f"params {key}: "):
            params_from_json({**good, key: value})
    with pytest.raises(UserInputError, match="re-run `co2meter train`"):
        params_from_json({**good, "version": 1})
    for key in ("prefill", "norms"):
        with pytest.raises(UserInputError, match=f"params {key}: missing"):
            params_from_json({k: v for k, v in good.items() if k != key})
    norms = {k: v for k, v in good["norms"].items() if k != "node_sd"}
    with pytest.raises(UserInputError, match="params norms.node_sd: missing"):
        params_from_json({**good, "norms": norms})
    blob = good["total"]
    for value in (blob[:-8], blob + "AAAAAAAAAAA=", blob[:-4] + "!!!!", 7):
        with pytest.raises(UserInputError, match="params total: "):
            params_from_json({**good, "total": value})
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
    tr, va, te = split_indices(10, 1.0, 0.0, seed=0)
    assert sorted(tr.tolist()) == list(range(10)) and len(va) == len(te) == 0
    with pytest.raises(ValueError):
        split_indices(10, 1.0, 0.1, seed=0)


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


def _as_samples_or_table(dataset, form):
    """dataset as given ("samples") or as its `sample_table` ("table"), and
    in the other form."""
    table = sample_table(dataset)
    return (dataset, table) if form == "samples" else (table, dataset)


@pytest.mark.parametrize("form", ["samples", "table"])
def test_ridge_baseline_beats_constant_prediction(dataset20, form):
    data, other = _as_samples_or_table(dataset20, form)
    ridge = fit_ridge_globals(data)
    preds = ridge.predict(data)
    assert np.all(preds > 0)
    truths = np.array([s.label_total_j for s in dataset20])
    constant = np.full_like(truths, truths.mean())
    assert mape(truths, preds) < mape(truths, constant)
    assert evaluate_baseline_total(preds, data).n == 20
    # a sample list and its table give the same bits
    assert np.array_equal(ridge.predict(other), preds)
    assert np.array_equal(fit_ridge_globals(other).predict(other), preds)
    assert evaluate_baseline_total(preds, other) == evaluate_baseline_total(preds, data)


@pytest.mark.parametrize("form", ["samples", "table"])
def test_single_phase_baseline_runs_and_predicts(dataset20, form):
    data, other = _as_samples_or_table(dataset20, form)
    params, history = train_single_phase(data, TrainConfig(epochs=3))
    assert [e["tower"] for e in history] == ["single"] * 3
    first5 = dataset20[:5] if form == "samples" else table_rows(data, np.arange(5))
    preds = predict_single_phase(params, first5)
    assert preds.shape == (5,)
    assert np.all(preds > 0) and np.all(np.isfinite(preds))
    # a sample list and its table give the same bits
    other_params, other_history = train_single_phase(other, TrainConfig(epochs=3))
    assert other_history == history
    for name, want in params.tower.arrays().items():
        assert np.array_equal(other_params.tower.arrays()[name], want), name
    _assert_same_norms(other_params.norms, params.norms)
    assert np.array_equal(predict_single_phase(other_params, first5), preds)
    assert np.array_equal(predict_single_phase(params, other), predict_single_phase(params, data))
    assert evaluate_baseline_total(preds, first5) == evaluate_baseline_total(preds, dataset20[:5])
    # the single tower reads no total-phase globals, so none are fitted
    assert np.array_equal(params.norms.glob_mu_total, identity_norms().glob_mu_total)
    assert np.array_equal(params.norms.glob_sd_total, identity_norms().glob_sd_total)
