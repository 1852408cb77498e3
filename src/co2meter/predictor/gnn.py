"""Graph network energy predictor, written out explicitly in numpy.

Two identical towers share the architecture: two rounds of GraphSAGE-style
message passing (h' = ReLU(W [h ; mean of in-neighbor h] + b), hidden width
64), mean pooling over nodes, then a one-hidden-layer ReLU head over
[embedding ; global features] that emits a scalar in log-energy space.  The
prefill tower predicts prefill energy; the total tower additionally receives
a prefill-energy global slot and predicts whole-request energy.

There is one pass, `forward_batch` / `backward_batch`: samples that share one
layer topology stack into (B, N, node_dim) tensors, so each layer is one
matmul over all B * N node rows and the parameter gradients come out summed
over the batch.  A single sample runs as a batch of one (`forward_tower`,
`backward_tower`).  Both passes read one row-normalized aggregation matrix
(the GraphSAGE mean aggregator).  Every `workload.LayerGraph` is stored in
canonical node order, so all the predictor's stacks share one `preds` and
predictions are bitwise invariant to node relabeling; node pooling still
sorts its addends along the node axis.  Backpropagation is hand-derived;
`grad_check` verifies it against central finite differences, and
`tests/gnn_reference.py` keeps an independent per-sample pass that the tests
hold the batched one to.  Which graph, globals and norms slot feed each tower
is decided in `training`.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..errors import UserInputError
from .data import GLOBAL_DIM, NODE_FEATURE_DIM, NUMERIC_NODE_FEATURES

HIDDEN_DIM = 64
NUM_ROUNDS = 2

_TOWER_ARRAYS = ("w1", "b1", "w2", "b2", "wh1", "bh1", "wh2", "bh2")


@dataclass
class TowerParams:
    """Weights of one encoder+head tower."""

    w1: np.ndarray  # (hidden, 2 * node_dim)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, 2 * hidden)
    b2: np.ndarray  # (hidden,)
    wh1: np.ndarray  # (hidden, hidden + glob_dim)
    bh1: np.ndarray  # (hidden,)
    wh2: np.ndarray  # (hidden,)
    bh2: np.ndarray  # (1,)

    @property
    def glob_dim(self) -> int:
        return self.wh1.shape[1] - HIDDEN_DIM

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _TOWER_ARRAYS}

    def copy(self) -> "TowerParams":
        return TowerParams(**{k: v.copy() for k, v in self.arrays().items()})

    def n_params(self) -> int:
        return sum(v.size for v in self.arrays().values())


@dataclass
class FeatureNorms:
    """log1p + z-score statistics frozen from the training split."""

    node_mu: np.ndarray  # (len(NUMERIC_NODE_FEATURES),)
    node_sd: np.ndarray
    glob_mu_prefill: np.ndarray  # (GLOBAL_DIM,)
    glob_sd_prefill: np.ndarray
    glob_mu_total: np.ndarray  # (GLOBAL_DIM + 1,) — includes prefill-energy slot
    glob_sd_total: np.ndarray


@dataclass
class GnnParams:
    """Everything needed to reproduce predictions: two towers plus norms."""

    prefill: TowerParams
    total: TowerParams
    norms: FeatureNorms


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_out, fan_in = shape if len(shape) == 2 else (1, shape[0])
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_tower(rng: np.random.Generator, node_dim: int, glob_dim: int) -> TowerParams:
    return TowerParams(
        w1=_glorot(rng, (HIDDEN_DIM, 2 * node_dim)),
        b1=np.zeros(HIDDEN_DIM),
        w2=_glorot(rng, (HIDDEN_DIM, 2 * HIDDEN_DIM)),
        b2=np.zeros(HIDDEN_DIM),
        wh1=_glorot(rng, (HIDDEN_DIM, HIDDEN_DIM + glob_dim)),
        bh1=np.zeros(HIDDEN_DIM),
        wh2=_glorot(rng, (HIDDEN_DIM,)),
        bh2=np.zeros(1),
    )


def identity_norms() -> FeatureNorms:
    n_node = len(NUMERIC_NODE_FEATURES)
    return FeatureNorms(
        node_mu=np.zeros(n_node),
        node_sd=np.ones(n_node),
        glob_mu_prefill=np.zeros(GLOBAL_DIM),
        glob_sd_prefill=np.ones(GLOBAL_DIM),
        glob_mu_total=np.zeros(GLOBAL_DIM + 1),
        glob_sd_total=np.ones(GLOBAL_DIM + 1),
    )


def init_params(seed: int) -> GnnParams:
    rng = np.random.default_rng(seed)
    return GnnParams(
        prefill=init_tower(rng, NODE_FEATURE_DIM, GLOBAL_DIM),
        total=init_tower(rng, NODE_FEATURE_DIM, GLOBAL_DIM + 1),
        norms=identity_norms(),
    )


# ---------------------------------------------------------------------------
# Normalization


def _log1p_scale(raw: np.ndarray, mu: np.ndarray, sd: np.ndarray) -> np.ndarray:
    return (np.log1p(raw) - mu) / sd


def fit_feature_norms(
    node_raws: Sequence[np.ndarray],
    glob_raw_prefill: np.ndarray,
    glob_raw_total: np.ndarray | None = None,
) -> FeatureNorms:
    """Statistics of log1p-transformed features; zero-variance columns get sd=1.

    Without total-phase globals (a tower that reads none) the total slots keep
    the identity statistics.
    """
    n_node = len(NUMERIC_NODE_FEATURES)
    stacked = np.log1p(np.vstack([m[:, :n_node] for m in node_raws]))

    def stats(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mu = mat.mean(axis=0)
        sd = mat.std(axis=0)
        sd[sd < 1e-12] = 1.0
        return mu, sd

    node_mu, node_sd = stats(stacked)
    gp_mu, gp_sd = stats(np.log1p(glob_raw_prefill))
    if glob_raw_total is None:
        ident = identity_norms()
        gt_mu, gt_sd = ident.glob_mu_total, ident.glob_sd_total
    else:
        gt_mu, gt_sd = stats(np.log1p(glob_raw_total))
    return FeatureNorms(node_mu, node_sd, gp_mu, gp_sd, gt_mu, gt_sd)


def normalize_nodes(raw: np.ndarray, norms: FeatureNorms) -> np.ndarray:
    """Normalized node matrices: scaled numeric columns, one-hot kept as is."""
    n_node = len(NUMERIC_NODE_FEATURES)
    out = raw.copy()
    out[..., :n_node] = _log1p_scale(raw[..., :n_node], norms.node_mu, norms.node_sd)
    return out


def normalize_globals(raw: np.ndarray, norms: FeatureNorms, phase: str) -> np.ndarray:
    if phase == "prefill":
        return _log1p_scale(raw, norms.glob_mu_prefill, norms.glob_sd_prefill)
    return _log1p_scale(raw, norms.glob_mu_total, norms.glob_sd_total)


# ---------------------------------------------------------------------------
# Forward / backward


@functools.lru_cache(maxsize=8)  # every sample shares one layer topology
def _aggregation_matrix(n: int, preds: tuple[tuple[int, ...], ...]) -> np.ndarray:
    a = np.zeros((n, n))
    for v, ps in enumerate(preds):
        for p in ps:
            a[v, p] = 1.0 / len(ps)
    a.setflags(write=False)
    return a


def _dense_relu(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ReLU(x @ w.T + b) over the last axis of a (B, N, K) stack, as one matmul.

    Computed in place: each stack is a few hundred kilobytes, and fresh
    buffers of that size cost page faults on every mini-batch.
    """
    out = x.reshape(-1, x.shape[-1]) @ w.T
    out += b
    np.maximum(out, 0.0, out=out)
    return out.reshape(*x.shape[:-1], w.shape[0])


def forward_batch(
    tower: TowerParams,
    h0: np.ndarray,
    preds: tuple[tuple[int, ...], ...],
    g: np.ndarray,
) -> tuple[np.ndarray, dict]:
    """Log-energy predictions (B,) for a stack of samples sharing one topology.

    h0 is (B, N, node_dim) and g is (B, glob_dim); the cache feeds
    `backward_batch`.  Only post-ReLU activations are kept: h > 0 exactly
    where the pre-activation is > 0.
    """
    agg = _aggregation_matrix(h0.shape[1], preds)
    c0 = np.concatenate([h0, agg @ h0], axis=2)
    h1 = _dense_relu(c0, tower.w1, tower.b1)
    c1 = np.concatenate([h1, agg @ h1], axis=2)
    h2 = _dense_relu(c1, tower.w2, tower.b2)

    pooled = np.sort(h2, axis=1).sum(axis=1) / h2.shape[1]
    zh = np.concatenate([pooled, g], axis=1)
    u = np.maximum(zh @ tower.wh1.T + tower.bh1, 0.0)
    y = u @ tower.wh2 + tower.bh2[0]

    cache = {"c0": c0, "h1": h1, "c1": c1, "h2": h2, "zh": zh, "u": u, "agg": agg}
    return y, cache


def backward_batch(
    tower: TowerParams, cache: dict, dy: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of sum_b dy[b] * y[b] with respect to every tower array."""
    h1, h2 = cache["h1"], cache["h2"]
    n = h2.shape[1]

    du_pre = np.outer(dy, tower.wh2) * (cache["u"] > 0)
    grads = {
        "wh2": dy @ cache["u"],
        "bh2": np.array([dy.sum()]),
        "wh1": du_pre.T @ cache["zh"],
        "bh1": du_pre.sum(axis=0),
    }
    dpooled = (du_pre @ tower.wh1)[:, :HIDDEN_DIM]

    dz2 = np.where(h2 > 0, (dpooled / n)[:, None, :], 0.0).reshape(-1, HIDDEN_DIM)
    grads["w2"] = dz2.T @ cache["c1"].reshape(len(dz2), -1)
    grads["b2"] = dz2.sum(axis=0)

    dc1 = (dz2 @ tower.w2).reshape(*h2.shape[:2], -1)
    dz1 = cache["agg"].T @ dc1[..., HIDDEN_DIM:]
    dz1 += dc1[..., :HIDDEN_DIM]
    dz1 *= h1 > 0
    dz1 = dz1.reshape(-1, HIDDEN_DIM)
    grads["w1"] = dz1.T @ cache["c0"].reshape(len(dz1), -1)
    grads["b1"] = dz1.sum(axis=0)
    return grads


def batch_loss_and_grads(
    tower: TowerParams,
    h0: np.ndarray,
    preds: tuple[tuple[int, ...], ...],
    g: np.ndarray,
    log_target: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Summed squared log-space error of a stack plus its summed gradients."""
    y, cache = forward_batch(tower, h0, preds, g)
    err = y - log_target
    return float(err @ err), backward_batch(tower, cache, 2.0 * err)


def forward_tower(
    tower: TowerParams,
    h0: np.ndarray,
    preds: Sequence[Sequence[int]],
    g: np.ndarray,
) -> tuple[float, dict]:
    """Log-energy prediction for one normalized sample, as a batch of one."""
    y, cache = forward_batch(tower, h0[None], tuple(map(tuple, preds)), g[None])
    return float(y[0]), cache


def backward_tower(
    tower: TowerParams, cache: dict, dy: float
) -> dict[str, np.ndarray]:
    """Gradients of dy * y with respect to every tower array, for one sample."""
    return backward_batch(tower, cache, np.array([dy]))


# ---------------------------------------------------------------------------
# Gradient check


def flatten_grads(grads: Mapping[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([np.ravel(grads[name]) for name in _TOWER_ARRAYS])


def grad_check(
    tower: TowerParams,
    h0: np.ndarray,
    preds: Sequence[Sequence[int]],
    g: np.ndarray,
    log_target: float,
    eps: float = 1e-5,
    n_checks: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Checks a random subset of at least `n_checks` parameters across all tower
    arrays (all of them when the tower is small).
    """
    y, cache = forward_tower(tower, h0, preds, g)
    flat_analytic = flatten_grads(backward_tower(tower, cache, 2.0 * (y - log_target)))

    total = tower.n_params()
    rng = np.random.default_rng(seed)
    if total <= n_checks:
        picks = np.arange(total)
    else:
        picks = rng.choice(total, size=n_checks, replace=False)

    sizes = [tower.arrays()[name].size for name in _TOWER_ARRAYS]
    offsets = np.cumsum([0] + sizes)

    def loss_with(idx: int, delta: float) -> float:
        arr_i = int(np.searchsorted(offsets, idx, side="right") - 1)
        name = _TOWER_ARRAYS[arr_i]
        arr = tower.arrays()[name]
        flat_idx = idx - offsets[arr_i]
        old = arr.flat[flat_idx]
        arr.flat[flat_idx] = old + delta
        y, _ = forward_tower(tower, h0, preds, g)
        arr.flat[flat_idx] = old
        err = y - log_target
        return err * err

    worst = 0.0
    for idx in picks:
        numeric = (loss_with(int(idx), eps) - loss_with(int(idx), -eps)) / (2.0 * eps)
        analytic = flat_analytic[int(idx)]
        denom = max(abs(numeric) + abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / denom)
    return worst


# ---------------------------------------------------------------------------
# Serialization


def params_to_json(params: GnnParams) -> dict:
    def tower_doc(t: TowerParams) -> dict:
        return {name: arr.tolist() for name, arr in t.arrays().items()}

    norms = params.norms
    return {
        "format": "co2meter-gnn-params",
        "version": 1,
        "hidden_dim": HIDDEN_DIM,
        "num_rounds": NUM_ROUNDS,
        "prefill": tower_doc(params.prefill),
        "total": tower_doc(params.total),
        "norms": {
            name: getattr(norms, name).tolist()
            for name in (f.name for f in fields(FeatureNorms))
        },
    }


def params_from_json(doc: Mapping) -> GnnParams:
    try:
        def tower(d: Mapping) -> TowerParams:
            return TowerParams(**{k: np.array(d[k], dtype=float) for k in _TOWER_ARRAYS})

        norms = FeatureNorms(
            **{
                f.name: np.array(doc["norms"][f.name], dtype=float)
                for f in fields(FeatureNorms)
            }
        )
        return GnnParams(
            prefill=tower(doc["prefill"]), total=tower(doc["total"]), norms=norms
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise UserInputError(f"malformed predictor params: {exc}") from exc


def save_params_json(path: str | Path, params: GnnParams, meta: dict | None = None) -> None:
    doc = params_to_json(params)
    if meta:
        doc["meta"] = meta
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def load_params_json(path: str | Path) -> tuple[GnnParams, dict]:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UserInputError(f"cannot read predictor params {path}: {exc}") from exc
    return params_from_json(doc), doc.get("meta", {})
