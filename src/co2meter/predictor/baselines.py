"""Reference baselines the two-phase predictor is compared against.

* globals ridge: closed-form ridge regression from the whole-request global
  feature vector to log total energy (no graph structure at all);
* single-phase GNN: the same tower architecture trained once on total energy,
  without phase separation or a prefill-energy feature.

Both read the same `training.sample_table` as the two-phase predictor: each
public function takes a sample set or its table and turns it into a table
once (`training._as_table`).  Ridge reads the table's `total_globals` and
`label_total_j` columns; the single-phase GNN trains on `train`'s split
(`training._split_tables`) in `train`'s tower loop (`training._train_towers`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import Record
from .data import GLOBAL_DIM, GraphSample
from .gnn import NODE_FEATURE_DIM, FeatureNorms, TowerParams, fit_feature_norms, init_tower
from .training import (_TOWERS, Metrics, SampleTable, TrainConfig, _as_table, _split_tables,
                       _tower_predictions, _train_towers, evaluate_predictions)

_RIDGE_LAMBDA = 1e-3


class RidgeBaseline(Record, frozen=False):
    """Linear map from normalized global features to log total energy."""

    weights: np.ndarray  # (GLOBAL_DIM + 1,) — affine term last
    mu: np.ndarray
    sd: np.ndarray

    def predict(self, samples: Sequence[GraphSample] | SampleTable) -> np.ndarray:
        x = (np.log1p(_as_table(samples)["total_globals"]) - self.mu) / self.sd
        return np.exp(np.column_stack([x, np.ones(len(x))]) @ self.weights)


def fit_ridge_globals(samples: Sequence[GraphSample] | SampleTable) -> RidgeBaseline:
    table = _as_table(samples)
    raw = np.log1p(table["total_globals"])
    mu = raw.mean(axis=0)
    sd = raw.std(axis=0)
    sd[sd < 1e-12] = 1.0
    x = np.column_stack([(raw - mu) / sd, np.ones(len(raw))])
    y = np.log(table["label_total_j"])
    gram = x.T @ x + _RIDGE_LAMBDA * np.eye(x.shape[1])
    weights = np.linalg.solve(gram, x.T @ y)
    return RidgeBaseline(weights=weights, mu=mu, sd=sd)


class SinglePhaseParams(Record, frozen=False):
    """One tower trained directly on total energy (no prefill feature)."""

    tower: TowerParams
    norms: FeatureNorms


def train_single_phase(
    dataset: Sequence[GraphSample] | SampleTable, cfg: TrainConfig
) -> tuple[SinglePhaseParams, list[dict]]:
    tables = _split_tables(dataset, cfg)
    # The single tower reads no total-phase slot, so those norms stay identity.
    spec = _TOWERS["single"]
    norms = fit_feature_norms(tables[0][spec.graph], tables[0][spec.globals])
    tower = init_tower(np.random.default_rng(cfg.seed), NODE_FEATURE_DIM, GLOBAL_DIM)
    history = _train_towers({"single": tower}, norms, tables, cfg)
    return SinglePhaseParams(tower=tower, norms=norms), history


def predict_single_phase(
    params: SinglePhaseParams, samples: Sequence[GraphSample] | SampleTable
) -> np.ndarray:
    h0, g = _TOWERS["single"].encode(_as_table(samples), params.norms)
    return _tower_predictions(params.tower, h0, g)


def evaluate_baseline_total(
    predictions: np.ndarray, samples: Sequence[GraphSample] | SampleTable
) -> Metrics:
    return evaluate_predictions(_as_table(samples)["label_total_j"], predictions)
