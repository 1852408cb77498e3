"""Two-stage training for the energy predictor, chained inference, metrics,
and the baselines the predictor is compared against.

Stage one fits the prefill tower on measured prefill energies.  Stage two
fits the total tower with the measured prefill energy teacher-forced into its
global features; at inference the predicted prefill energy is used instead.
Both stages minimize squared error in log-energy space with Adam.

Two baselines stand in for the prior methods: a closed-form ridge regression
from the whole-request global feature vector to log total energy (no graph
structure at all, `fit_ridge_globals`), and a single-phase GNN, the same tower
architecture trained once on total energy without phase separation or a
prefill-energy feature (`train_single_phase`).

A sample set is featurized once, into one table (`sample_table`, its node
tensors from `data.node_feature_tensor`) that norm fitting, every tower,
validation, evaluation and the ridge fit read; `_TOWERS` says which of its
fields each tower reads.  The table is the only form the internals take: each
entry point (`train`, `evaluate_params`, `fit_norms`, `_prepare` and the
baselines) takes a sample set or its table and turns it into a table once
(`_as_table`), only the fields it reads (`_column`) for the ridge baseline and
`evaluate_baseline_total`.  Both trainers split a sample set with
`_split_tables`, which indexes a table's rows (`table_rows`) or featurizes
only the train and validation samples of a sequence.  The two-phase predictor
and the single-phase baseline train their towers in one loop
(`_train_towers`).  A `LayerGraph` is the decoder layer in canonical node
order from the moment it is built, so every GNN evaluation is the batched
pass (`gnn.forward_batch` / `gnn.backward_batch`) over rows of one stack: a
mini-batch when training, chunks of a whole sample set when predicting
(`evaluate_params`), and a batch of one for a single request
(`predict_prefill`, `predict_total`, `predict_sample`).  `train_tower`
allocates one `gnn.Workspace` for its mini-batches and one for validation,
gathers each mini-batch's rows of the `gnn.c0_stack` that `_prepare` built
once straight into the first (`Workspace.gather`), and steps Adam over the
flat parameters with the flat gradient, so a step allocates no large array.
The per-sample reference pass and trainer the tests compare against live in
`tests/gnn_reference.py`.  Training is bit-deterministic for a fixed seed:
splits, shuffles, and init all come from one seeded generator, and a batch
stacks its samples in sorted index order.
"""

from __future__ import annotations

from typing import ClassVar, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ..errors import Positive, Record, TrainingDivergedError
from ..workload import LAYER_PREDS, GlobalFeatures, LayerGraph
from .data import (
    GLOBAL_DIM,
    GraphSample,
    PredictorInputs,
    globals_vector,
    node_feature_tensor,
    split_indices,
)
from .gnn import (
    NODE_FEATURE_DIM,
    GnnParams,
    TowerParams,
    FeatureNorms,
    Workspace,
    c0_stack,
    column_stats,
    fit_feature_norms,
    forward_batch,
    gathered_loss_and_grads,
    init_params,
    init_tower,
    normalize_globals,
    normalize_nodes,
)

# Rows per batched forward pass when predicting a whole sample set.
_PREDICT_BATCH = 256


class TrainConfig(Record):
    epochs: int = 200
    learning_rate: Positive = 0.001
    batch_size: int = 32
    seed: int = 42
    train_frac: float = 0.8
    val_frac: float = 0.1

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs/batch_size must be positive")
        split_indices(0, self.train_frac, self.val_frac, self.seed)  # checks the fractions


class Metrics(Record):
    mape: float
    eb10: float
    n: int


def _relative_errors(y_true: np.ndarray, y_pred: np.ndarray, what: str) -> np.ndarray:
    """|y_pred - y_true| / y_true per value; ValueError naming `what` unless
    there are truths and all of them are positive."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.size == 0:
        raise ValueError(f"{what} needs at least one value")
    if np.any(y_true <= 0):
        raise ValueError(f"{what} needs positive ground-truth values")
    return np.abs(y_pred - y_true) / y_true


def mape(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean absolute percentage error; truths must be positive."""
    return float(np.mean(_relative_errors(y_true, y_pred, "mape")) * 100.0)


_ERROR_BOUND = 0.10


def error_bound_share(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Share (percent) of predictions with relative error <= 10 %."""
    rel = _relative_errors(y_true, y_pred, "error-bound share")
    return float(np.mean(rel <= _ERROR_BOUND) * 100.0)


def evaluate_predictions(y_true: np.ndarray, y_pred: np.ndarray) -> Metrics:
    return Metrics(
        mape=mape(y_true, y_pred),
        eb10=error_bound_share(y_true, y_pred),
        n=int(np.asarray(y_true).size),
    )


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam (`_BETA1`, `_BETA2`, `_EPS`) over a named set of parameter
    arrays (in-place updates); `train_tower` passes one array, the tower's
    flat buffer."""

    def __init__(self, arrays: Mapping[str, np.ndarray], lr: float) -> None:
        self.lr = lr
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
        bc1 = 1.0 - _BETA1 ** self.t
        bc2 = 1.0 - _BETA2 ** self.t
        for name, arr in arrays.items():
            grad, m, v = grads[name], self.m[name], self.v[name]
            a, b = self._scratch[name]
            m *= _BETA1
            m += np.multiply(1.0 - _BETA1, grad, out=a)
            v *= _BETA2
            np.multiply(1.0 - _BETA2, grad, out=a)
            v += np.multiply(a, grad, out=a)
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += _EPS
            arr -= np.divide(a, b, out=a)


SampleTable = dict[str, np.ndarray]


def _column(samples: Sequence[PredictorInputs], field: str) -> np.ndarray:
    """One field of the samples' `sample_table`, built alone."""
    values = [getattr(s, field) for s in samples]
    if field.endswith("_graph"):
        return node_feature_tensor(values)
    if field.endswith("_globals"):
        return np.array([globals_vector(v) for v in values]).reshape(len(values), GLOBAL_DIM)
    return np.array(values, dtype=float)


def sample_table(samples: Sequence[PredictorInputs]) -> SampleTable:
    """Raw inputs of a sample set, one `_column` per field, stacked in sample
    order: (S, 12, NODE_FEATURE_DIM) node tensors in canonical node order,
    (S, GLOBAL_DIM) global rows, and (S,) labels when there are any."""
    fields = ["prefill_graph", "decode_graph", "prefill_globals", "total_globals"]
    if all(isinstance(s, GraphSample) for s in samples):
        fields += ["label_prefill_j", "label_total_j"]
    return {field: _column(samples, field) for field in fields}


def table_rows(table: SampleTable, idx: np.ndarray) -> SampleTable:
    """The `sample_table` of the samples at idx, indexed out of their set's."""
    return {field: column[idx] for field, column in table.items()}


def _as_table(data: Sequence[PredictorInputs] | SampleTable,
              fields: Sequence[str] | None = None) -> SampleTable:
    """data's `sample_table`, or its named fields alone; a table is returned as it is."""
    if isinstance(data, dict):
        return data
    return sample_table(data) if fields is None else {f: _column(data, f) for f in fields}


def _split_tables(data: Sequence[GraphSample] | SampleTable,
                  cfg: TrainConfig) -> tuple[SampleTable, SampleTable]:
    """Tables of the train and validation splits of data: a `sample_table`
    is indexed, of a sequence of samples only those two splits are featurized."""
    is_table = isinstance(data, dict)
    n = len(data["prefill_graph"] if is_table else data)
    if n < 2:
        raise ValueError("training needs at least two samples")
    return tuple(
        table_rows(data, idx) if is_table else sample_table([data[i] for i in idx])
        for idx in split_indices(n, cfg.train_frac, cfg.val_frac, cfg.seed)[:2]
    )


class _TowerInputs(Record):
    """Which table fields one tower reads, and its norms slot."""

    graph: str  # field holding the layer graph
    globals: str  # field holding the global features
    norm_slot: str  # FeatureNorms globals slot, as `normalize_globals` names it
    label: str  # field holding the energy the tower predicts
    # Field teacher-forced into the prefill-energy slot when training (the
    # total tower only); inference fills that slot with predictions instead.
    teacher: str | None = None

    def encode(
        self, table: SampleTable, norms: FeatureNorms, prefill_j: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Normalized (h0, g) stacks; prefill_j fills the total tower's
        prefill-energy column."""
        raw_g = table[self.globals]
        if prefill_j is not None:
            raw_g = np.column_stack([raw_g, prefill_j])
        h0 = normalize_nodes(table[self.graph], norms)
        return h0, normalize_globals(raw_g, norms, self.norm_slot)


_TOWERS = {
    "prefill": _TowerInputs("prefill_graph", "prefill_globals", "prefill", "label_prefill_j"),
    "total": _TowerInputs(
        "decode_graph", "total_globals", "total", "label_total_j", "label_prefill_j"
    ),
    # single-phase baseline: no prefill-energy slot, so its total-phase globals
    # are scaled with the prefill slot's statistics
    "single": _TowerInputs("prefill_graph", "total_globals", "prefill", "label_total_j"),
}


class _Row(NamedTuple):
    h0: np.ndarray
    preds: tuple[tuple[int, ...], ...]
    g: np.ndarray
    log_target: float
    target_j: float


class _TowerSet(Record):
    """One tower's labelled inputs over a sample set, stacked in sample order,
    with the `preds` of the decoder-layer graph.  The node features are stored
    as a `gnn.c0_stack`, so a mini-batch gathers straight into a workspace.
    Indexing and iteration give per-sample rows."""

    c0: np.ndarray  # (S, 12, 2 * node_dim): h0, then its neighbor means
    g: np.ndarray  # (S, glob_dim)
    log_target: np.ndarray  # (S,)
    target_j: np.ndarray  # (S,)
    preds: ClassVar[tuple[tuple[int, ...], ...]] = LAYER_PREDS

    @property
    def h0(self) -> np.ndarray:  # (S, 12, node_dim)
        return self.c0[..., :self.c0.shape[2] // 2]

    def __len__(self) -> int:
        return len(self.target_j)

    def __getitem__(self, i: int) -> _Row:
        return _Row(self.h0[i], self.preds, self.g[i],
                    float(self.log_target[i]), float(self.target_j[i]))

    def __iter__(self) -> Iterator[_Row]:
        return map(self.__getitem__, range(len(self)))


def _prepare(data: Sequence[GraphSample] | SampleTable, norms: FeatureNorms,
             tower: str) -> _TowerSet:
    """Labelled tensors of the 'prefill', 'total' (teacher-forced) or 'single'
    tower over a sample set or its table."""
    table = _as_table(data)
    spec = _TOWERS[tower]
    teacher = None if spec.teacher is None else table[spec.teacher]
    target = table[spec.label]
    h0, g = spec.encode(table, norms, teacher)
    return _TowerSet(c0_stack(h0), g, np.log(target), target)


def fit_norms(data: Sequence[GraphSample] | SampleTable) -> FeatureNorms:
    """Feature statistics over the training split (both graphs per sample)."""
    table = _as_table(data)
    prefill, total = _TOWERS["prefill"], _TOWERS["total"]
    # node rows interleave each sample's two graphs: the order they are summed in
    nodes = np.stack([table[prefill.graph], table[total.graph]], axis=1)
    total_g = np.column_stack([table[total.globals], table[total.teacher]])
    return fit_feature_norms(
        nodes.reshape(-1, *nodes.shape[2:]), table[prefill.globals], total_g
    )


def _prediction_workspace(tower: TowerParams, h0: np.ndarray) -> Workspace:
    return Workspace.allocate(tower, min(len(h0), _PREDICT_BATCH))


def _tower_predictions(
    tower: TowerParams, h0: np.ndarray, g: np.ndarray, workspace: Workspace | None = None
) -> np.ndarray:
    """Predicted energies (joules) of stacked inputs, batched forward passes
    of `_PREDICT_BATCH` rows through one workspace."""
    if workspace is None:
        workspace = _prediction_workspace(tower, h0)
    out = np.empty(len(h0))
    for start in range(0, len(h0), _PREDICT_BATCH):
        rows = slice(start, start + _PREDICT_BATCH)
        y, _ = forward_batch(tower, h0[rows], g[rows], workspace)
        with np.errstate(over="ignore"):  # an inf energy is for the caller to refuse
            out[rows] = np.exp(y)
    return out


def train_tower(
    tower: TowerParams,
    train_set: _TowerSet,
    val_set: _TowerSet | Sequence,
    cfg: TrainConfig,
    rng: np.random.Generator,
    label: str,
) -> list[dict]:
    """Adam loop over one tower; returns per-epoch history entries.  An empty
    val_set (such as `[]`) skips validation."""
    if not train_set:
        raise ValueError("empty training set")
    tower.bh2[0] = float(np.mean(train_set.log_target))
    flat_params = {"flat": tower.flat}
    adam = Adam(flat_params, cfg.learning_rate)
    workspace = Workspace.allocate(tower, min(cfg.batch_size, len(train_set)))
    val_workspace = _prediction_workspace(tower, val_set.h0) if val_set else None
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_set))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = np.sort(order[start:start + cfg.batch_size])
            loss, grad = gathered_loss_and_grads(
                tower, workspace.gather(train_set.c0, batch),
                train_set.g[batch], train_set.log_target[batch],
            )
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"{label} tower: non-finite loss at epoch {epoch}"
                )
            grad *= 1.0 / len(batch)
            adam.step(flat_params, {"flat": grad})
            epoch_loss += loss
        entry = {
            "tower": label,
            "epoch": epoch,
            "train_loss": epoch_loss / len(train_set),
        }
        if val_set:
            preds = _tower_predictions(tower, val_set.h0, val_set.g, val_workspace)
            entry["val_mape"] = mape(val_set.target_j, preds)
            entry["val_eb10"] = error_bound_share(val_set.target_j, preds)
        history.append(entry)
    return history


def _train_towers(towers: Mapping[str, TowerParams], norms: FeatureNorms,
                  tables: tuple[SampleTable, SampleTable], cfg: TrainConfig) -> list[dict]:
    """`train_tower` over each named tower in turn, on the (train, validation)
    tables, with one generator seeded from cfg; returns their history."""
    rng = np.random.default_rng(cfg.seed)
    history = []
    for name, tower in towers.items():
        train_set, val_set = (_prepare(table, norms, name) for table in tables)
        history += train_tower(tower, train_set, val_set, cfg, rng, name)
    return history


def train(
    dataset: Sequence[GraphSample] | SampleTable, cfg: TrainConfig
) -> tuple[GnnParams, list[dict]]:
    """Fit both towers on the dataset's train split; returns params + history.

    The dataset is a sequence of samples or its `sample_table`."""
    tables = _split_tables(dataset, cfg)
    params = init_params(cfg.seed)
    params.norms = fit_norms(tables[0])
    towers = {"prefill": params.prefill, "total": params.total}
    return params, _train_towers(towers, params.norms, tables, cfg)


def _predict_chain(params: GnnParams, table: SampleTable) -> tuple[np.ndarray, np.ndarray]:
    """Chained inference: the prefill tower runs over the whole set, its
    predicted energies fill the total tower's prefill-energy slot, then the
    total tower runs.  Returns (prefill, total) energies in joules."""
    prefill, total = _TOWERS["prefill"], _TOWERS["total"]
    prefill_j = _tower_predictions(params.prefill, *prefill.encode(table, params.norms))
    total_j = _tower_predictions(params.total, *total.encode(table, params.norms, prefill_j))
    return prefill_j, total_j


def _predict_one(params: GnnParams, tower: str, graph: LayerGraph, gf: GlobalFeatures,
                 prefill_j: np.ndarray | None = None) -> float:
    """One request's energy in joules from the named tower of params."""
    spec = _TOWERS[tower]
    table = {spec.graph: node_feature_tensor([graph]), spec.globals: globals_vector(gf)[None]}
    h0, g = spec.encode(table, params.norms, prefill_j)
    return float(_tower_predictions(getattr(params, tower), h0, g)[0])


def predict_prefill(
    graph: LayerGraph, gf: GlobalFeatures, params: GnnParams
) -> float:
    """Prefill energy in joules (strictly positive by construction)."""
    if gf.phase != "prefill":
        raise ValueError("prefill prediction needs prefill-phase globals")
    return _predict_one(params, "prefill", graph, gf)


def predict_total(
    graph: LayerGraph, gf: GlobalFeatures, params: GnnParams
) -> float:
    """Whole-request energy in joules; globals must carry the prefill energy."""
    if gf.phase != "total":
        raise ValueError("total prediction needs total-phase globals")
    if gf.prefill_energy_j is None:
        raise ValueError("total prediction needs globals with a prefill energy")
    return _predict_one(params, "total", graph, gf, np.array([gf.prefill_energy_j]))


def predict_sample(params: GnnParams, sample: PredictorInputs) -> tuple[float, float]:
    """Chained inference for one request: predicted prefill energy feeds the total tower."""
    prefill_j, total_j = _predict_chain(params, sample_table([sample]))
    return float(prefill_j[0]), float(total_j[0])


def evaluate_params(
    params: GnnParams, samples: Sequence[GraphSample] | SampleTable
) -> dict[str, Metrics]:
    """Chained-inference metrics for both heads over a sample set or its
    `sample_table`."""
    table = _as_table(samples)
    if not len(table["prefill_graph"]):
        raise ValueError("evaluation needs at least one sample")
    return {
        name: evaluate_predictions(table[_TOWERS[name].label], pred)
        for name, pred in zip(("prefill", "total"), _predict_chain(params, table))
    }


# ---------------------------------------------------------------------------
# Baselines

_RIDGE_LAMBDA = 1e-3


class RidgeBaseline(Record, frozen=False):
    """Linear map from normalized global features to log total energy."""

    weights: np.ndarray  # (GLOBAL_DIM + 1,) — affine term last
    mu: np.ndarray
    sd: np.ndarray

    def predict(self, samples: Sequence[GraphSample] | SampleTable) -> np.ndarray:
        x = (np.log1p(_as_table(samples, ["total_globals"])["total_globals"]) - self.mu) / self.sd
        return np.exp(np.column_stack([x, np.ones(len(x))]) @ self.weights)


def fit_ridge_globals(samples: Sequence[GraphSample] | SampleTable) -> RidgeBaseline:
    table = _as_table(samples, ["total_globals", "label_total_j"])
    raw = np.log1p(table["total_globals"])
    mu, sd = column_stats(raw)
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
    return evaluate_predictions(_as_table(samples, ["label_total_j"])["label_total_j"], predictions)
