"""Two-stage training for the energy predictor, plus evaluation metrics.

Stage one fits the prefill tower on measured prefill energies.  Stage two
fits the total tower with the measured prefill energy teacher-forced into its
global features; at inference the predicted prefill energy is used instead.
Both stages minimize squared error in log-energy space with Adam.  Each
mini-batch is one stacked forward and backward pass (`gnn.forward_batch`)
per layer topology in the batch, usually exactly one; the per-epoch
validation predictions use the same batched forward.  Training is
bit-deterministic for a fixed seed: splits, shuffles, and init all come from
one seeded generator, and a batch stacks its samples in sorted index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..errors import TrainingDivergedError
from ..workload import in_neighbor_lists, with_prefill_energy
from .data import (
    GraphSample,
    PredictorInputs,
    globals_vector,
    node_feature_matrix,
    split_indices,
)
from .gnn import (
    GnnParams,
    TowerParams,
    FeatureNorms,
    batch_loss_and_grads,
    fit_feature_norms,
    forward_batch,
    init_params,
    normalize_globals,
    normalize_nodes,
    predict_prefill,
    predict_total,
)

# Rows per batched forward pass when predicting a whole sample set.
_PREDICT_BATCH = 256


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 0.001
    batch_size: int = 32
    seed: int = 42
    train_frac: float = 0.8
    val_frac: float = 0.1

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1 or self.learning_rate <= 0:
            raise ValueError("epochs/batch_size/learning_rate must be positive")
        if not 0 < self.train_frac <= 1 or self.val_frac < 0:
            raise ValueError("invalid split fractions")
        if self.train_frac + self.val_frac > 1:
            raise ValueError("train_frac + val_frac must be <= 1")


@dataclass(frozen=True)
class Metrics:
    mape: float
    eb10: float
    n: int


def mape(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean absolute percentage error; truths must be positive."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.size == 0:
        raise ValueError("mape needs at least one value")
    if np.any(y_true <= 0):
        raise ValueError("mape needs positive ground-truth values")
    return float(np.mean(np.abs(y_pred - y_true) / y_true) * 100.0)


def error_bound_share(
    y_true: np.ndarray, y_pred: np.ndarray, bound: float = 0.10
) -> float:
    """Share (percent) of predictions with relative error <= bound."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.size == 0:
        raise ValueError("error-bound share needs at least one value")
    if np.any(y_true <= 0):
        raise ValueError("error-bound share needs positive ground-truth values")
    rel = np.abs(y_pred - y_true) / y_true
    return float(np.mean(rel <= bound) * 100.0)


def evaluate_predictions(y_true: np.ndarray, y_pred: np.ndarray) -> Metrics:
    return Metrics(
        mape=mape(y_true, y_pred),
        eb10=error_bound_share(y_true, y_pred),
        n=int(np.asarray(y_true).size),
    )


class Adam:
    """Standard Adam over a named set of parameter arrays (in-place updates)."""

    def __init__(
        self,
        arrays: Mapping[str, np.ndarray],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}
        self._scratch = {k: (np.empty_like(v), np.empty_like(v)) for k, v in arrays.items()}

    def step(
        self, arrays: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]
    ) -> None:
        """m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
        param -= (lr * m/bc1) / (sqrt(v/bc2) + eps), in place, in that order."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, arr in arrays.items():
            grad, m, v = grads[name], self.m[name], self.v[name]
            a, b = self._scratch[name]
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, grad, out=a)
            v *= self.beta2
            np.multiply(1.0 - self.beta2, grad, out=a)
            v += np.multiply(a, grad, out=a)
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            arr -= np.divide(a, b, out=a)


@dataclass(frozen=True)
class PreparedSample:
    """Normalized tensors for one sample and one tower."""

    h0: np.ndarray
    preds: tuple
    g: np.ndarray
    log_target: float
    target_j: float


def _prepare(
    samples: Sequence[GraphSample], norms: FeatureNorms, tower: str
) -> list[PreparedSample]:
    """tower is 'prefill', 'total' (teacher-forced), or 'single' (no prefill slot)."""
    prepared = []
    for s in samples:
        if tower == "prefill":
            graph, gf = s.prefill_graph, s.prefill_globals
            raw_g = globals_vector(gf)
            g = normalize_globals(raw_g, norms, "prefill")
            target = s.label_prefill_j
        elif tower == "total":
            graph = s.decode_graph
            raw_g = np.concatenate(
                [globals_vector(s.total_globals), [s.label_prefill_j]]
            )
            g = normalize_globals(raw_g, norms, "total")
            target = s.label_total_j
        elif tower == "single":
            graph = s.prefill_graph
            g = normalize_globals(
                globals_vector(s.total_globals), norms, "prefill"
            )
            target = s.label_total_j
        else:
            raise ValueError(f"unknown tower {tower!r}")
        prepared.append(
            PreparedSample(
                h0=normalize_nodes(node_feature_matrix(graph), norms),
                preds=in_neighbor_lists(graph),
                g=g,
                log_target=float(np.log(target)),
                target_j=target,
            )
        )
    return prepared


def fit_norms(samples: Sequence[GraphSample]) -> FeatureNorms:
    """Feature statistics over the training split (both graphs per sample)."""
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


class _Stacks:
    """Prepared samples stacked once per layer topology, for batched passes."""

    def __init__(self, prepared: Sequence[PreparedSample]) -> None:
        self.n = len(prepared)
        members: dict[tuple, list[int]] = {}
        for i, p in enumerate(prepared):
            members.setdefault(p.preds, []).append(i)
        self.group_of = np.empty(self.n, dtype=int)
        self.row_of = np.empty(self.n, dtype=int)
        self.groups = []
        for gid, (preds, idx) in enumerate(members.items()):
            self.group_of[idx] = gid
            self.row_of[idx] = np.arange(len(idx))
            self.groups.append((
                preds,
                np.stack([prepared[i].h0 for i in idx]),
                np.stack([prepared[i].g for i in idx]),
                np.array([prepared[i].log_target for i in idx]),
            ))

    def batches(
        self, idx: np.ndarray
    ) -> Iterator[tuple[np.ndarray, tuple, np.ndarray, np.ndarray, np.ndarray]]:
        """Per topology among the samples at idx: (those indices, preds,
        stacked h0, stacked g, log targets)."""
        gids = self.group_of[idx]
        for gid in np.unique(gids):
            picked = idx[gids == gid]
            rows = self.row_of[picked]
            preds, h0, g, log_target = self.groups[gid]
            yield picked, preds, h0[rows], g[rows], log_target[rows]


def _tower_predictions(tower: TowerParams, stacks: _Stacks) -> np.ndarray:
    """Predicted energies (joules) in prepared order, batched forward passes."""
    out = np.empty(stacks.n)
    for start in range(0, stacks.n, _PREDICT_BATCH):
        idx = np.arange(start, min(start + _PREDICT_BATCH, stacks.n))
        for picked, preds, h0, g, _ in stacks.batches(idx):
            out[picked] = np.exp(forward_batch(tower, h0, preds, g)[0])
    return out


def train_tower(
    tower: TowerParams,
    train_set: Sequence[PreparedSample],
    val_set: Sequence[PreparedSample],
    cfg: TrainConfig,
    rng: np.random.Generator,
    label: str,
) -> list[dict]:
    """Adam loop over one tower; returns per-epoch history entries."""
    if not train_set:
        raise ValueError("empty training set")
    tower.bh2[0] = float(np.mean([p.log_target for p in train_set]))
    arrays = tower.arrays()
    adam = Adam(arrays, cfg.learning_rate)
    stacks, val_stacks = _Stacks(train_set), _Stacks(val_set)
    truths = np.array([p.target_j for p in val_set])
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_set))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = np.sort(order[start:start + cfg.batch_size])
            parts = [
                batch_loss_and_grads(tower, h0, preds, g, log_target)
                for _, preds, h0, g, log_target in stacks.batches(batch)
            ]
            loss_sum = sum(loss for loss, _ in parts)
            if not np.isfinite(loss_sum):
                raise TrainingDivergedError(
                    f"{label} tower: non-finite loss at epoch {epoch}"
                )
            scale = 1.0 / len(batch)
            adam.step(arrays, {k: sum(g[k] for _, g in parts) * scale for k in arrays})
            epoch_loss += loss_sum
        entry = {
            "tower": label,
            "epoch": epoch,
            "train_loss": epoch_loss / len(train_set),
        }
        if val_set:
            preds = _tower_predictions(tower, val_stacks)
            entry["val_mape"] = mape(truths, preds)
            entry["val_eb10"] = error_bound_share(truths, preds)
        history.append(entry)
    return history


def train(
    dataset: Sequence[GraphSample], cfg: TrainConfig
) -> tuple[GnnParams, list[dict]]:
    """Fit both towers on the dataset's train split; returns params + history."""
    if len(dataset) < 2:
        raise ValueError("training needs at least two samples")
    train_idx, val_idx, _ = split_indices(
        len(dataset), cfg.train_frac, cfg.val_frac, cfg.seed
    )
    train_samples = [dataset[i] for i in train_idx]
    val_samples = [dataset[i] for i in val_idx]

    params = init_params(cfg.seed)
    params.norms = fit_norms(train_samples)

    rng = np.random.default_rng(cfg.seed)
    history = train_tower(
        params.prefill,
        _prepare(train_samples, params.norms, "prefill"),
        _prepare(val_samples, params.norms, "prefill"),
        cfg,
        rng,
        "prefill",
    )
    history += train_tower(
        params.total,
        _prepare(train_samples, params.norms, "total"),
        _prepare(val_samples, params.norms, "total"),
        cfg,
        rng,
        "total",
    )
    return params, history


def predict_sample(params: GnnParams, sample: PredictorInputs) -> tuple[float, float]:
    """Chained inference: predicted prefill energy feeds the total tower."""
    prefill_j = predict_prefill(sample.prefill_graph, sample.prefill_globals, params)
    gf = with_prefill_energy(sample.total_globals, prefill_j)
    total_j = predict_total(sample.decode_graph, gf, params)
    return prefill_j, total_j


def evaluate_params(
    params: GnnParams, samples: Sequence[GraphSample]
) -> dict[str, Metrics]:
    """Chained-inference metrics for both heads over a sample set."""
    if not samples:
        raise ValueError("evaluation needs at least one sample")
    pairs = [predict_sample(params, s) for s in samples]
    prefill_pred = np.array([p for p, _ in pairs])
    total_pred = np.array([t for _, t in pairs])
    prefill_true = np.array([s.label_prefill_j for s in samples])
    total_true = np.array([s.label_total_j for s in samples])
    return {
        "prefill": evaluate_predictions(prefill_true, prefill_pred),
        "total": evaluate_predictions(total_true, total_pred),
    }
