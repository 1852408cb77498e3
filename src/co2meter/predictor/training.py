"""Two-stage training for the energy predictor, chained inference, metrics.

Stage one fits the prefill tower on measured prefill energies.  Stage two
fits the total tower with the measured prefill energy teacher-forced into its
global features; at inference the predicted prefill energy is used instead.
Both stages minimize squared error in log-energy space with Adam.

`_TOWERS` is the one table of which graph, globals, norms slot and label each
tower reads from a sample; featurization, norm fitting, training and
inference all go through it.  Every GNN evaluation is the batched pass
(`gnn.forward_batch` / `gnn.backward_batch`) over samples stacked per layer
topology, usually exactly one: a mini-batch when training, chunks of a whole
sample set when predicting (`evaluate_params`), and a batch of one for a
single request (`predict_prefill`, `predict_total`, `predict_sample`).  The
per-sample reference pass and trainer the tests compare against live in
`tests/gnn_reference.py`.  Training is bit-deterministic for a fixed seed:
splits, shuffles, and init all come from one seeded generator, and a batch
stacks its samples in sorted index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..errors import TrainingDivergedError
from ..workload import GlobalFeatures, LayerGraph, in_neighbor_lists
from .data import (
    GLOBAL_DIM,
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
        split_indices(0, self.train_frac, self.val_frac, self.seed)  # checks the fractions


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
class _TowerInputs:
    """Where one tower reads a sample: sample fields and its norms slot."""

    graph: str  # field holding the layer graph
    globals: str  # field holding the global features
    norm_slot: str  # FeatureNorms globals slot, as `normalize_globals` names it
    label: str  # field holding the energy the tower predicts
    # Field teacher-forced into the prefill-energy slot when training (the
    # total tower only); inference fills that slot with predictions instead.
    teacher: str | None = None

    def read(
        self, samples: Sequence[PredictorInputs]
    ) -> tuple[list[LayerGraph], list[GlobalFeatures]]:
        return (
            [getattr(s, self.graph) for s in samples],
            [getattr(s, self.globals) for s in samples],
        )


_TOWERS = {
    "prefill": _TowerInputs("prefill_graph", "prefill_globals", "prefill", "label_prefill_j"),
    "total": _TowerInputs(
        "decode_graph", "total_globals", "total", "label_total_j", "label_prefill_j"
    ),
    # single-phase baseline: no prefill-energy slot, so its total-phase globals
    # are scaled with the prefill slot's statistics
    "single": _TowerInputs("prefill_graph", "total_globals", "prefill", "label_total_j"),
}


@dataclass(frozen=True)
class EncodedSample:
    """Normalized tensors for one sample and one tower."""

    h0: np.ndarray
    preds: tuple
    g: np.ndarray


@dataclass(frozen=True)
class PreparedSample(EncodedSample):
    """An encoded sample with the tower's label."""

    log_target: float
    target_j: float


def _labels(samples: Sequence[GraphSample], field: str) -> np.ndarray:
    return np.array([getattr(s, field) for s in samples])


def _raw_inputs(
    graphs: Sequence[LayerGraph],
    gfs: Sequence[GlobalFeatures],
    prefill_j: Sequence[float] | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Raw node matrices and global rows; prefill_j fills the prefill-energy
    column of the tower that has one."""
    raw_g = np.array([globals_vector(gf) for gf in gfs]).reshape(len(gfs), GLOBAL_DIM)
    if prefill_j is not None:
        raw_g = np.column_stack([raw_g, prefill_j])
    return [node_feature_matrix(graph) for graph in graphs], raw_g


def _encode(
    graphs: Sequence[LayerGraph],
    gfs: Sequence[GlobalFeatures],
    norms: FeatureNorms,
    norm_slot: str,
    prefill_j: Sequence[float] | None = None,
) -> list[EncodedSample]:
    node_raws, raw_g = _raw_inputs(graphs, gfs, prefill_j)
    g = normalize_globals(raw_g, norms, norm_slot)
    return [
        EncodedSample(normalize_nodes(raw, norms), in_neighbor_lists(graph), row)
        for graph, raw, row in zip(graphs, node_raws, g)
    ]


def _prepare(
    samples: Sequence[GraphSample], norms: FeatureNorms, tower: str
) -> list[PreparedSample]:
    """Labelled tensors of the 'prefill', 'total' (teacher-forced) or 'single' tower."""
    spec = _TOWERS[tower]
    teacher = None if spec.teacher is None else _labels(samples, spec.teacher)
    encoded = _encode(*spec.read(samples), norms, spec.norm_slot, teacher)
    return [
        PreparedSample(e.h0, e.preds, e.g, float(np.log(t)), float(t))
        for e, t in zip(encoded, _labels(samples, spec.label))
    ]


def fit_norms(samples: Sequence[GraphSample]) -> FeatureNorms:
    """Feature statistics over the training split (both graphs per sample)."""
    total = _TOWERS["total"]
    prefill_nodes, prefill_g = _raw_inputs(*_TOWERS["prefill"].read(samples))
    total_nodes, total_g = _raw_inputs(
        *total.read(samples), _labels(samples, total.teacher)
    )
    node_raws = [m for pair in zip(prefill_nodes, total_nodes) for m in pair]
    return fit_feature_norms(node_raws, prefill_g, total_g)


class _Stacks:
    """Encoded samples stacked once per layer topology, for batched passes."""

    def __init__(self, encoded: Sequence[EncodedSample]) -> None:
        self.n = len(encoded)
        members: dict[tuple, list[int]] = {}
        for i, e in enumerate(encoded):
            members.setdefault(e.preds, []).append(i)
        self.group_of = np.empty(self.n, dtype=int)
        self.row_of = np.empty(self.n, dtype=int)
        self.groups = []
        for gid, (preds, idx) in enumerate(members.items()):
            self.group_of[idx] = gid
            self.row_of[idx] = np.arange(len(idx))
            self.groups.append((
                preds,
                np.stack([encoded[i].h0 for i in idx]),
                np.stack([encoded[i].g for i in idx]),
            ))

    def batches(
        self, idx: np.ndarray
    ) -> Iterator[tuple[np.ndarray, tuple, np.ndarray, np.ndarray]]:
        """Per topology among the samples at idx: (those indices, preds,
        stacked h0, stacked g)."""
        gids = self.group_of[idx]
        for gid in np.unique(gids):
            picked = idx[gids == gid]
            rows = self.row_of[picked]
            preds, h0, g = self.groups[gid]
            yield picked, preds, h0[rows], g[rows]


def _tower_predictions(tower: TowerParams, stacks: _Stacks) -> np.ndarray:
    """Predicted energies (joules) in encoded order, batched forward passes."""
    out = np.empty(stacks.n)
    for start in range(0, stacks.n, _PREDICT_BATCH):
        idx = np.arange(start, min(start + _PREDICT_BATCH, stacks.n))
        for picked, preds, h0, g in stacks.batches(idx):
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
    log_targets = np.array([p.log_target for p in train_set])
    truths = np.array([p.target_j for p in val_set])
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_set))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = np.sort(order[start:start + cfg.batch_size])
            parts = [
                batch_loss_and_grads(tower, h0, preds, g, log_targets[picked])
                for picked, preds, h0, g in stacks.batches(batch)
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


def _energies(
    tower: TowerParams,
    norms: FeatureNorms,
    spec: _TowerInputs,
    graphs: Sequence[LayerGraph],
    gfs: Sequence[GlobalFeatures],
    prefill_j: Sequence[float] | None = None,
) -> np.ndarray:
    """One tower's predicted energies (joules) over graphs and their globals."""
    encoded = _encode(graphs, gfs, norms, spec.norm_slot, prefill_j)
    return _tower_predictions(tower, _Stacks(encoded))


def _predict_chain(
    params: GnnParams, samples: Sequence[PredictorInputs]
) -> tuple[np.ndarray, np.ndarray]:
    """Chained inference: the prefill tower runs over the whole set, its
    predicted energies fill the total tower's prefill-energy slot, then the
    total tower runs.  Returns (prefill, total) energies in joules."""
    prefill, total = _TOWERS["prefill"], _TOWERS["total"]
    prefill_j = _energies(params.prefill, params.norms, prefill, *prefill.read(samples))
    total_j = _energies(params.total, params.norms, total, *total.read(samples), prefill_j)
    return prefill_j, total_j


def predict_prefill(
    graph: LayerGraph, gf: GlobalFeatures, params: GnnParams
) -> float:
    """Prefill energy in joules (strictly positive by construction)."""
    if gf.phase != "prefill":
        raise ValueError("prefill prediction needs prefill-phase globals")
    return float(_energies(params.prefill, params.norms, _TOWERS["prefill"], [graph], [gf])[0])


def predict_total(
    graph: LayerGraph, gf: GlobalFeatures, params: GnnParams
) -> float:
    """Whole-request energy in joules; globals must carry the prefill energy."""
    if gf.phase != "total":
        raise ValueError("total prediction needs total-phase globals")
    if gf.prefill_energy_j is None:
        raise ValueError("total prediction needs globals with a prefill energy")
    return float(_energies(
        params.total, params.norms, _TOWERS["total"], [graph], [gf], [gf.prefill_energy_j]
    )[0])


def predict_sample(params: GnnParams, sample: PredictorInputs) -> tuple[float, float]:
    """Chained inference for one request: predicted prefill energy feeds the total tower."""
    prefill_j, total_j = _predict_chain(params, [sample])
    return float(prefill_j[0]), float(total_j[0])


def evaluate_params(
    params: GnnParams, samples: Sequence[GraphSample]
) -> dict[str, Metrics]:
    """Chained-inference metrics for both heads over a sample set."""
    if not samples:
        raise ValueError("evaluation needs at least one sample")
    return {
        name: evaluate_predictions(_labels(samples, _TOWERS[name].label), pred)
        for name, pred in zip(("prefill", "total"), _predict_chain(params, samples))
    }
