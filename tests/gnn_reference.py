"""Reference predictor: a per-sample GNN pass and a per-sample trainer.

`co2meter.predictor.gnn` has one pass, `forward_batch` / `backward_batch`,
which stacks decoder-layer samples and runs a single sample as a batch of
one.  The tests hold it to the per-sample pass here: `forward_tower` and
`backward_tower` with explicit sorted neighbor sums and mean pooling in node
order, and `encode_inputs` / `fit_norms` / `fit_norms_single`, which pick
each tower's graph, globals and norms slot per sample.
`node_feature_matrix` fills a graph's node features one element at a time,
and `in_neighbor_lists` reads its edges; the library builds one table for
all graphs from their canonical order.
`train_tower` is the Adam loop with one forward/backward per sample and
gradients summed in a loop; it has the library's signature and consumes the
generator in the same order.  `ReferenceAdam` is the Adam update written with
fresh arrays; `Adam.step` evaluates the same expressions in place.
"""

import numpy as np

from co2meter.errors import TrainingDivergedError
from co2meter.predictor import (
    HIDDEN_DIM,
    NODE_FEATURE_DIM,
    NUMERIC_NODE_FEATURES,
    Adam,
    error_bound_share,
    globals_vector,
    mape,
)
from co2meter.predictor.gnn import fit_feature_norms, normalize_globals, normalize_nodes
from co2meter.workload import KERNEL_KINDS
from oracle_reference import arithmetic_intensity


def node_feature_matrix(graph):
    """Raw (N, 18) node features: 8 numeric columns then a 10-wide kind one-hot.
    Each column is the node field of its name, the intensity computed by
    `oracle_reference.arithmetic_intensity`."""
    out = np.zeros((len(graph.nodes), NODE_FEATURE_DIM))
    for i, node in enumerate(graph.nodes):
        for j, field in enumerate(NUMERIC_NODE_FEATURES):
            out[i, j] = (arithmetic_intensity(node) if field == "arithmetic_intensity"
                         else getattr(node, field))
        out[i, len(NUMERIC_NODE_FEATURES) + KERNEL_KINDS.index(node.kind)] = 1.0
    return out


def in_neighbor_lists(graph):
    """Per-node tuple of predecessor indices, read from the graph's edges."""
    preds = [[] for _ in graph.nodes]
    for src, dst in graph.edges:
        preds[dst].append(src)
    return tuple(tuple(p) for p in preds)


def sorted_sum(values):
    """Column sums with addends sorted by value (label-order independent)."""
    return np.sort(values, axis=0).sum(axis=0)


def neighbor_mean(h, preds):
    out = np.zeros_like(h)
    for v, ps in enumerate(preds):
        if ps:
            out[v] = sorted_sum(h[list(ps)]) / len(ps)
    return out


def aggregation_matrix(n, preds):
    a = np.zeros((n, n))
    for v, ps in enumerate(preds):
        for p in ps:
            a[v, p] = 1.0 / len(ps)
    return a


def forward_tower(tower, h0, preds, g):
    """Log-energy prediction for one normalized sample, with a backward cache."""
    c0 = np.concatenate([h0, neighbor_mean(h0, preds)], axis=1)
    z1 = c0 @ tower.w1.T + tower.b1
    h1 = np.maximum(z1, 0.0)

    c1 = np.concatenate([h1, neighbor_mean(h1, preds)], axis=1)
    z2 = c1 @ tower.w2.T + tower.b2
    h2 = np.maximum(z2, 0.0)

    pooled = h2.sum(axis=0) / len(h2)  # summed in the graph's node order
    zh = np.concatenate([pooled, g])
    u_pre = tower.wh1 @ zh + tower.bh1
    u = np.maximum(u_pre, 0.0)
    y = float(tower.wh2 @ u + tower.bh2[0])

    cache = {
        "c0": c0, "z1": z1, "h1": h1, "c1": c1, "z2": z2, "h2": h2,
        "zh": zh, "u_pre": u_pre, "u": u,
        "agg": aggregation_matrix(len(h0), preds),
    }
    return y, cache


def backward_tower(tower, cache, dy):
    """Gradients of dy * y with respect to every tower array."""
    n = cache["h2"].shape[0]

    du = dy * tower.wh2
    du_pre = du * (cache["u_pre"] > 0)
    grads = {
        "wh2": dy * cache["u"],
        "bh2": np.array([dy]),
        "wh1": np.outer(du_pre, cache["zh"]),
        "bh1": du_pre,
    }
    dzh = tower.wh1.T @ du_pre
    dpooled = dzh[:HIDDEN_DIM]

    dh2 = np.tile(dpooled / n, (n, 1))
    dz2 = dh2 * (cache["z2"] > 0)
    grads["w2"] = dz2.T @ cache["c1"]
    grads["b2"] = dz2.sum(axis=0)

    dc1 = dz2 @ tower.w2
    dh1 = dc1[:, :HIDDEN_DIM] + cache["agg"].T @ dc1[:, HIDDEN_DIM:]
    dz1 = dh1 * (cache["z1"] > 0)
    grads["w1"] = dz1.T @ cache["c0"]
    grads["b1"] = dz1.sum(axis=0)
    return grads


def sample_loss_and_grads(tower, h0, preds, g, log_target):
    """Squared log-space error for one sample plus its parameter gradients."""
    y, cache = forward_tower(tower, h0, preds, g)
    err = y - log_target
    grads = backward_tower(tower, cache, 2.0 * err)
    return err * err, grads


def encode_inputs(graph, gf, norms, phase, prefill_energy_j=None):
    """Normalized (h0, preds, g) of one graph; phase 'total' appends the
    prefill energy to the globals and scales them with the total slot."""
    h0 = normalize_nodes(node_feature_matrix(graph), norms)
    raw_g = globals_vector(gf)
    if phase == "total":
        raw_g = np.concatenate([raw_g, [prefill_energy_j]])
    return h0, in_neighbor_lists(graph), normalize_globals(raw_g, norms, phase)


def fit_norms(samples):
    """Two-phase feature statistics: both graphs per sample, prefill globals,
    and total globals with the labelled prefill energy appended."""
    node_raws = []
    glob_prefill = []
    glob_total = []
    for s in samples:
        node_raws.append(node_feature_matrix(s.prefill_graph))
        node_raws.append(node_feature_matrix(s.decode_graph))
        glob_prefill.append(globals_vector(s.prefill_globals))
        glob_total.append(
            np.concatenate([globals_vector(s.total_globals), [s.label_prefill_j]])
        )
    return fit_feature_norms(node_raws, np.array(glob_prefill), np.array(glob_total))


def fit_norms_single(samples):
    """Single-phase statistics: prefill graphs, total globals in the prefill slot."""
    node_raws = [node_feature_matrix(s.prefill_graph) for s in samples]
    glob = np.array([globals_vector(s.total_globals) for s in samples])
    return fit_feature_norms(node_raws, glob)


def predict_sample(params, sample):
    """Chained inference, one sample at a time through the per-sample pass."""
    y, _ = forward_tower(params.prefill, *encode_inputs(
        sample.prefill_graph, sample.prefill_globals, params.norms, "prefill"))
    prefill_j = float(np.exp(y))
    y, _ = forward_tower(params.total, *encode_inputs(
        sample.decode_graph, sample.total_globals, params.norms, "total", prefill_j))
    return prefill_j, float(np.exp(y))


def tower_predictions(tower, prepared):
    """Predicted energies (joules), one per-sample forward pass each."""
    return np.array(
        [np.exp(forward_tower(tower, p.h0, p.preds, p.g)[0]) for p in prepared]
    )


def batch_loss_and_grads(tower, prepared, batch):
    """Summed loss and gradients over prepared[batch], sample by sample."""
    grad_sum = {k: np.zeros_like(v) for k, v in tower.arrays().items()}
    loss_sum = 0.0
    for idx in batch:
        p = prepared[int(idx)]
        loss, grads = sample_loss_and_grads(tower, p.h0, p.preds, p.g, p.log_target)
        loss_sum += loss
        for k in grad_sum:
            grad_sum[k] += grads[k]
    return loss_sum, grad_sum


def train_tower(tower, train_set, val_set, cfg, rng, label):
    """Adam loop over one tower; returns per-epoch history entries."""
    if not train_set:
        raise ValueError("empty training set")
    tower.bh2[0] = float(np.mean([p.log_target for p in train_set]))
    arrays = tower.arrays()
    adam = Adam(arrays, cfg.learning_rate)
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_set))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = np.sort(order[start:start + cfg.batch_size])
            loss_sum, grad_sum = batch_loss_and_grads(tower, train_set, batch)
            if not np.isfinite(loss_sum):
                raise TrainingDivergedError(
                    f"{label} tower: non-finite loss at epoch {epoch}"
                )
            scale = 1.0 / len(batch)
            adam.step(arrays, {k: v * scale for k, v in grad_sum.items()})
            epoch_loss += loss_sum
        entry = {
            "tower": label,
            "epoch": epoch,
            "train_loss": epoch_loss / len(train_set),
        }
        if val_set:
            preds = tower_predictions(tower, val_set)
            truths = np.array([p.target_j for p in val_set])
            entry["val_mape"] = mape(truths, preds)
            entry["val_eb10"] = error_bound_share(truths, preds)
        history.append(entry)
    return history


class ReferenceAdam:
    """Adam over named arrays; every step allocates its intermediates."""

    def __init__(self, arrays, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}

    def step(self, arrays, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, arr in arrays.items():
            grad = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * grad
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * grad * grad
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            arr -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
