"""Reference baselines the two-phase predictor is compared against.

* globals ridge: closed-form ridge regression from the whole-request global
  feature vector to log total energy (no graph structure at all);
* single-phase GNN: the same tower architecture trained once on total energy,
  without phase separation or a prefill-energy feature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import GLOBAL_DIM, GraphSample, globals_vector
from .gnn import (
    NODE_FEATURE_DIM,
    FeatureNorms,
    TowerParams,
    fit_feature_norms,
    init_tower,
)
from .training import (
    _TOWERS,
    Metrics,
    TrainConfig,
    SampleTable,
    _as_table,
    _n_samples,
    _rows,
    _tower_predictions,
    _tower_set,
    evaluate_predictions,
    split_indices,
    train_tower,
)

_RIDGE_LAMBDA = 1e-3


@dataclass
class RidgeBaseline:
    """Linear map from normalized global features to log total energy."""

    weights: np.ndarray  # (GLOBAL_DIM + 1,) — affine term last
    mu: np.ndarray
    sd: np.ndarray

    def predict(self, samples: Sequence[GraphSample]) -> np.ndarray:
        x = _ridge_design(samples, self.mu, self.sd)
        return np.exp(x @ self.weights)


def _ridge_raw(samples: Sequence[GraphSample]) -> np.ndarray:
    return np.array([globals_vector(s.total_globals) for s in samples])


def _ridge_design(
    samples: Sequence[GraphSample], mu: np.ndarray, sd: np.ndarray
) -> np.ndarray:
    x = (np.log1p(_ridge_raw(samples)) - mu) / sd
    return np.column_stack([x, np.ones(len(x))])


def fit_ridge_globals(
    samples: Sequence[GraphSample], lam: float = _RIDGE_LAMBDA
) -> RidgeBaseline:
    raw = np.log1p(_ridge_raw(samples))
    mu = raw.mean(axis=0)
    sd = raw.std(axis=0)
    sd[sd < 1e-12] = 1.0
    x = np.column_stack([(raw - mu) / sd, np.ones(len(raw))])
    y = np.log([s.label_total_j for s in samples])
    gram = x.T @ x + lam * np.eye(x.shape[1])
    weights = np.linalg.solve(gram, x.T @ y)
    return RidgeBaseline(weights=weights, mu=mu, sd=sd)


@dataclass
class SinglePhaseParams:
    """One tower trained directly on total energy (no prefill feature)."""

    tower: TowerParams
    norms: FeatureNorms


def train_single_phase(
    dataset: Sequence[GraphSample] | SampleTable, cfg: TrainConfig
) -> tuple[SinglePhaseParams, list[dict]]:
    train_idx, val_idx, _ = split_indices(
        _n_samples(dataset), cfg.train_frac, cfg.val_frac, cfg.seed
    )
    train_table = _rows(dataset, train_idx)
    # The single tower reads no total-phase slot, so those norms stay identity.
    spec = _TOWERS["single"]
    norms = fit_feature_norms(train_table[spec.graph], train_table[spec.globals])
    tower = init_tower(
        np.random.default_rng(cfg.seed), NODE_FEATURE_DIM, GLOBAL_DIM
    )
    rng = np.random.default_rng(cfg.seed)
    history = train_tower(
        tower,
        _tower_set(train_table, norms, "single"),
        _tower_set(_rows(dataset, val_idx), norms, "single"),
        cfg,
        rng,
        "single",
    )
    return SinglePhaseParams(tower=tower, norms=norms), history


def predict_single_phase(
    params: SinglePhaseParams, samples: Sequence[GraphSample] | SampleTable
) -> np.ndarray:
    h0, g = _TOWERS["single"].encode(_as_table(samples), params.norms)
    return _tower_predictions(params.tower, h0, g)


def evaluate_baseline_total(
    predictions: np.ndarray, samples: Sequence[GraphSample]
) -> Metrics:
    truths = np.array([s.label_total_j for s in samples])
    return evaluate_predictions(truths, predictions)
