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
canonical node order, so all the predictor's stacks share one `preds`, nodes
are mean-pooled in that order, and predictions are bitwise invariant to node
relabeling.

A tower's arrays are views of one flat parameter buffer (`TowerParams.flat`),
and `backward_batch` returns one flat gradient in the same layout, so Adam
updates one array per step.  The passes write every activation and gradient
into a `Workspace` with `out=`; training reuses one, sized to a mini-batch,
for every step (`Workspace.gather` fills it, `gathered_loss_and_grads` runs
the loss and its gradient), and other callers get a fresh one per pass, with
the same arithmetic and bits.  Backpropagation is hand-derived;
`grad_check` verifies it against central finite differences, and
`tests/gnn_reference.py` keeps an independent per-sample pass that the tests
hold the batched one to.  Which graph, globals and norms slot feed each tower
is decided in `training`.

Params files (`save_params_json` / `load_params_json`) are format version 2:
a JSON object, keys sorted, whose `format`, `version`, `hidden_dim`,
`num_rounds` and optional `meta` are plain JSON, and whose `prefill` and
`total` entries are each tower's `flat` buffer as base64 little-endian float64
(`"<f8"`), as is every vector under `norms`.  The loader derives every size
from HIDDEN_DIM, NODE_FEATURE_DIM and GLOBAL_DIM, and refuses a wrong
envelope, a blob of the wrong length and a non-finite value; the writer
refuses non-finite values too.  Arrays round-trip bit-exactly.  Version 1
(decimal lists) is not read: re-run `co2meter train` to rewrite such a file.
"""

from __future__ import annotations

import base64
import functools
import json
import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..errors import Record, UserInputError, json_int, json_number, json_object, read_json
from .data import GLOBAL_DIM, NODE_FEATURE_DIM, NUMERIC_NODE_FEATURES

HIDDEN_DIM = 64
NUM_ROUNDS = 2


def _tower_shapes(node_dim: int, glob_dim: int) -> dict[str, tuple[int, ...]]:
    """Shape of each named array of a tower, in `TowerParams.flat` order."""
    return {
        "w1": (HIDDEN_DIM, 2 * node_dim),
        "b1": (HIDDEN_DIM,),
        "w2": (HIDDEN_DIM, 2 * HIDDEN_DIM),
        "b2": (HIDDEN_DIM,),
        "wh1": (HIDDEN_DIM, HIDDEN_DIM + glob_dim),
        "bh1": (HIDDEN_DIM,),
        "wh2": (HIDDEN_DIM,),
        "bh2": (1,),
    }


# globals each tower reads: the total tower adds a prefill-energy slot
_TOWER_GLOB_DIMS = {"prefill": GLOBAL_DIM, "total": GLOBAL_DIM + 1}


def _split(flat: np.ndarray, shapes: Mapping[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Named views of consecutive runs of `flat` with the given shapes."""
    out, start = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        out[name] = flat[start:start + size].reshape(shape)
        start += size
    return out


class TowerParams(Record, frozen=False):
    """Weights of one encoder+head tower.

    The named arrays are views of one flat float64 buffer, `flat` (an
    attribute, not a field), filled from the arrays the tower is built with;
    a gradient and the optimizer state use the same layout (`views`)."""

    w1: np.ndarray  # (hidden, 2 * node_dim)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, 2 * hidden)
    b2: np.ndarray  # (hidden,)
    wh1: np.ndarray  # (hidden, hidden + glob_dim)
    bh1: np.ndarray  # (hidden,)
    wh2: np.ndarray  # (hidden,)
    bh2: np.ndarray  # (1,)

    def __post_init__(self) -> None:
        self.flat = np.concatenate(
            [np.ravel(getattr(self, name)) for name in self._fields], dtype=float
        )
        for name, view in self.views(self.flat).items():
            setattr(self, name, view)

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self._fields}

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of a flat vector laid out like `flat`, such as a gradient."""
        return _split(flat, {name: getattr(self, name).shape for name in self._fields})

    def n_params(self) -> int:
        return self.flat.size


class FeatureNorms(Record, frozen=False):
    """log1p + z-score statistics frozen from the training split."""

    node_mu: np.ndarray  # (len(NUMERIC_NODE_FEATURES),)
    node_sd: np.ndarray
    glob_mu_prefill: np.ndarray  # (GLOBAL_DIM,)
    glob_sd_prefill: np.ndarray
    glob_mu_total: np.ndarray  # (GLOBAL_DIM + 1,) — includes prefill-energy slot
    glob_sd_total: np.ndarray


class GnnParams(Record, frozen=False):
    """Everything needed to reproduce predictions: two towers plus norms."""

    prefill: TowerParams
    total: TowerParams
    norms: FeatureNorms


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_out, fan_in = shape if len(shape) == 2 else (1, shape[0])
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_tower(rng: np.random.Generator, node_dim: int, glob_dim: int) -> TowerParams:
    """Glorot-uniform weights, drawn in flat order, and zero biases."""
    return TowerParams(**{
        name: np.zeros(shape) if name.startswith("b") else _glorot(rng, shape)
        for name, shape in _tower_shapes(node_dim, glob_dim).items()
    })


def _norm_sizes() -> dict[str, int]:
    """Length of each `FeatureNorms` vector, in field order."""
    n_node = len(NUMERIC_NODE_FEATURES)
    return {
        "node_mu": n_node,
        "node_sd": n_node,
        "glob_mu_prefill": GLOBAL_DIM,
        "glob_sd_prefill": GLOBAL_DIM,
        "glob_mu_total": GLOBAL_DIM + 1,
        "glob_sd_total": GLOBAL_DIM + 1,
    }


def identity_norms() -> FeatureNorms:
    return FeatureNorms(**{
        name: np.zeros(size) if "_mu" in name else np.ones(size)
        for name, size in _norm_sizes().items()
    })


def init_params(seed: int) -> GnnParams:
    rng = np.random.default_rng(seed)
    return GnnParams(
        **{
            name: init_tower(rng, NODE_FEATURE_DIM, glob_dim)
            for name, glob_dim in _TOWER_GLOB_DIMS.items()
        },
        norms=identity_norms(),
    )


# ---------------------------------------------------------------------------
# Normalization


def _log1p_scale(raw: np.ndarray, mu: np.ndarray, sd: np.ndarray) -> np.ndarray:
    return (np.log1p(raw) - mu) / sd


def column_stats(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and standard deviation of mat; a column whose sd is
    below 1e-12 gets sd 1, so scaling by it leaves the column centred."""
    mu = mat.mean(axis=0)
    sd = mat.std(axis=0)
    sd[sd < 1e-12] = 1.0
    return mu, sd


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
    node_mu, node_sd = column_stats(stacked)
    gp_mu, gp_sd = column_stats(np.log1p(glob_raw_prefill))
    if glob_raw_total is None:
        ident = identity_norms()
        gt_mu, gt_sd = ident.glob_mu_total, ident.glob_sd_total
    else:
        gt_mu, gt_sd = column_stats(np.log1p(glob_raw_total))
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


_ROW_BUFFERS = ("c0", "c1", "h2", "zh", "u", "dc1", "dz2", "dz1", "mask")


class Workspace(Record, frozen=False):
    """Buffers of one tower's batched pass over up to B samples of N nodes.

    `forward_batch` fills the activations and `backward_batch` the gradient
    buffers and `grad`, each with `out=`, so a workspace reused across
    mini-batches makes a training step allocate no large array.  A pass over
    fewer than B samples uses the leading rows (`head`)."""

    c0: np.ndarray  # (B, N, 2 * node_dim): [h0 ; neighbor mean of h0]
    c1: np.ndarray  # (B, N, 2 * hidden): [h1 ; neighbor mean of h1]
    h2: np.ndarray  # (B, N, hidden)
    zh: np.ndarray  # (B, hidden + glob_dim): [pooled h2 ; globals]
    u: np.ndarray  # (B, hidden): head activations
    dc1: np.ndarray  # (B, N, 2 * hidden): gradient of c1
    dz2: np.ndarray  # (B, N, hidden): gradient of layer 2's pre-activation
    dz1: np.ndarray  # (B, N, hidden): gradient of layer 1's pre-activation
    mask: np.ndarray  # (B, N, hidden) bool: where an activation is positive
    grad: np.ndarray  # (n_params,): flat gradient, laid out like TowerParams.flat
    agg: np.ndarray | None = None  # aggregation matrix of the pass held

    @classmethod
    def allocate(cls, tower: TowerParams, rows: int, n_nodes: int) -> "Workspace":
        nodes = (rows, n_nodes)
        return cls(
            c0=np.empty((*nodes, tower.w1.shape[1])),
            c1=np.empty((*nodes, 2 * HIDDEN_DIM)),
            h2=np.empty((*nodes, HIDDEN_DIM)),
            zh=np.empty((rows, tower.wh1.shape[1])),
            u=np.empty((rows, HIDDEN_DIM)),
            dc1=np.empty((*nodes, 2 * HIDDEN_DIM)),
            dz2=np.empty((*nodes, HIDDEN_DIM)),
            dz1=np.empty((*nodes, HIDDEN_DIM)),
            mask=np.empty((*nodes, HIDDEN_DIM), dtype=bool),
            grad=np.empty(tower.n_params()),
        )

    @property
    def h1(self) -> np.ndarray:
        return self.c1[..., :HIDDEN_DIM]

    def head(self, rows: int, agg: np.ndarray) -> "Workspace":
        """The leading `rows` samples of every per-sample buffer, one `grad`."""
        return Workspace(
            *(getattr(self, name)[:rows] for name in _ROW_BUFFERS), grad=self.grad, agg=agg
        )

    def gather(
        self, stack: np.ndarray, rows: np.ndarray, preds: tuple[tuple[int, ...], ...]
    ) -> "Workspace":
        """The head holding the samples at `rows` of a `c0_stack`, copied
        straight into `c0`: one copy of the node rows per mini-batch.  The
        rows must be in range (a permutation's are)."""
        ws = self.head(len(rows), _aggregation_matrix(stack.shape[1], preds))
        # mode="clip" into a contiguous `out` writes in place; "raise" would
        # copy through a temporary
        np.take(stack, rows, axis=0, out=ws.c0, mode="clip")
        return ws


def c0_stack(h0: np.ndarray) -> np.ndarray:
    """(S, N, 2 * node_dim) stack laid out like `Workspace.c0`: h0 in the
    leading columns, zeros where a pass writes the neighbor mean."""
    stack = np.zeros((*h0.shape[:2], 2 * h0.shape[2]))
    stack[..., :h0.shape[2]] = h0
    return stack


def _dense_relu(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = ReLU(x @ w.T + b) over the last axis of a stack, as one matmul
    over all its rows; `out` must reshape to rows without a copy, as the
    leading rows of a workspace buffer do."""
    rows = out.reshape(-1, w.shape[0])
    np.matmul(x.reshape(-1, x.shape[-1]), w.T, out=rows)
    rows += b
    np.maximum(rows, 0.0, out=rows)


def forward_batch(
    tower: TowerParams,
    h0: np.ndarray,
    preds: tuple[tuple[int, ...], ...],
    g: np.ndarray,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, Workspace]:
    """Log-energy predictions (B,) for a stack of samples sharing one topology.

    h0 is (B, N, node_dim) and g is (B, glob_dim).  The activations go to the
    leading B rows of `workspace` (a fresh one when None), which is returned
    as the cache `backward_batch` reads.  Only post-ReLU activations are
    kept: h > 0 exactly where the pre-activation is > 0.
    """
    batch, n = h0.shape[:2]
    if workspace is None:
        workspace = Workspace.allocate(tower, batch, n)
    ws = workspace.head(batch, _aggregation_matrix(n, preds))
    ws.c0[..., :h0.shape[2]] = h0
    return _forward_head(tower, ws, g), ws


def _forward_head(tower: TowerParams, ws: Workspace, g: np.ndarray) -> np.ndarray:
    """`forward_batch` over a workspace head whose `c0` holds h0 in its
    leading columns."""
    n, node_dim = ws.c0.shape[1], ws.c0.shape[2] // 2
    np.matmul(ws.agg, ws.c0[..., :node_dim], out=ws.c0[..., node_dim:])
    _dense_relu(ws.c0, tower.w1, tower.b1, out=ws.h1)
    np.matmul(ws.agg, ws.h1, out=ws.c1[..., HIDDEN_DIM:])
    _dense_relu(ws.c1, tower.w2, tower.b2, out=ws.h2)

    pooled = ws.zh[:, :HIDDEN_DIM]
    np.sum(ws.h2, axis=1, out=pooled)  # canonical node order
    pooled /= n
    ws.zh[:, HIDDEN_DIM:] = g
    _dense_relu(ws.zh, tower.wh1, tower.bh1, out=ws.u)
    return ws.u @ tower.wh2 + tower.bh2[0]


def backward_batch(tower: TowerParams, ws: Workspace, dy: np.ndarray) -> np.ndarray:
    """Flat gradient (`ws.grad`, laid out like `tower.flat`) of
    sum_b dy[b] * y[b], from the workspace `forward_batch` returned;
    `tower.views` names its parts."""
    grads = tower.views(ws.grad)
    n = ws.h2.shape[1]

    du_pre = np.outer(dy, tower.wh2)
    du_pre *= ws.u > 0
    np.matmul(dy, ws.u, out=grads["wh2"])
    grads["bh2"][0] = dy.sum()
    np.matmul(du_pre.T, ws.zh, out=grads["wh1"])
    np.sum(du_pre, axis=0, out=grads["bh1"])
    dpooled = (du_pre @ tower.wh1)[:, :HIDDEN_DIM]

    np.greater(ws.h2, 0.0, out=ws.mask)
    np.multiply(ws.mask, (dpooled / n)[:, None, :], out=ws.dz2)
    dz2 = ws.dz2.reshape(-1, HIDDEN_DIM)
    np.matmul(dz2.T, ws.c1.reshape(len(dz2), -1), out=grads["w2"])
    np.sum(dz2, axis=0, out=grads["b2"])

    np.matmul(dz2, tower.w2, out=ws.dc1.reshape(len(dz2), -1))
    np.matmul(ws.agg.T, ws.dc1[..., HIDDEN_DIM:], out=ws.dz1)
    ws.dz1 += ws.dc1[..., :HIDDEN_DIM]
    np.greater(ws.h1, 0.0, out=ws.mask)
    ws.dz1 *= ws.mask
    dz1 = ws.dz1.reshape(-1, HIDDEN_DIM)
    np.matmul(dz1.T, ws.c0.reshape(len(dz1), -1), out=grads["w1"])
    np.sum(dz1, axis=0, out=grads["b1"])
    return ws.grad


def gathered_loss_and_grads(
    tower: TowerParams, ws: Workspace, g: np.ndarray, log_target: np.ndarray
) -> tuple[float, np.ndarray]:
    """Summed squared log-space error of the samples a `Workspace.gather` head
    holds, plus its summed flat gradient (`ws.grad`)."""
    err = _forward_head(tower, ws, g) - log_target
    return float(err @ err), backward_batch(tower, ws, 2.0 * err)


def forward_tower(
    tower: TowerParams,
    h0: np.ndarray,
    preds: Sequence[Sequence[int]],
    g: np.ndarray,
) -> tuple[float, Workspace]:
    """Log-energy prediction for one normalized sample, as a batch of one."""
    y, cache = forward_batch(tower, h0[None], tuple(map(tuple, preds)), g[None])
    return float(y[0]), cache


def backward_tower(tower: TowerParams, cache: Workspace, dy: float) -> np.ndarray:
    """Flat gradient of dy * y for one sample, laid out like `tower.flat`."""
    return backward_batch(tower, cache, np.array([dy]))


# ---------------------------------------------------------------------------
# Gradient check


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
    analytic = backward_tower(tower, cache, 2.0 * (y - log_target))

    total = tower.n_params()
    rng = np.random.default_rng(seed)
    if total <= n_checks:
        picks = np.arange(total)
    else:
        picks = rng.choice(total, size=n_checks, replace=False)

    def loss_with(idx: int, delta: float) -> float:
        old = tower.flat[idx]
        tower.flat[idx] = old + delta
        y, _ = forward_tower(tower, h0, preds, g)
        tower.flat[idx] = old
        err = y - log_target
        return err * err

    worst = 0.0
    for idx in picks:
        numeric = (loss_with(int(idx), eps) - loss_with(int(idx), -eps)) / (2.0 * eps)
        denom = max(abs(numeric) + abs(analytic[idx]), 1e-8)
        worst = max(worst, abs(numeric - analytic[idx]) / denom)
    return worst


# ---------------------------------------------------------------------------
# Serialization

_ENVELOPE = {
    "format": "co2meter-gnn-params",
    "version": 2,
    "hidden_dim": HIDDEN_DIM,
    "num_rounds": NUM_ROUNDS,
}


def _finite(where: str, arr: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise UserInputError(
            f"predictor params {where}: non-finite value at index {bad[0]}"
        )


def _encode(where: str, arr: np.ndarray) -> str:
    _finite(where, arr)
    return base64.b64encode(arr.astype("<f8", copy=False).tobytes()).decode("ascii")


def _decode(where: str, blob: object, size: int) -> np.ndarray:
    """The `size` little-endian float64 values of a base64 blob (read-only)."""
    if not isinstance(blob, str):
        raise UserInputError(f"predictor params {where}: expected a base64 string")
    try:
        raw = base64.b64decode(blob, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise UserInputError(f"predictor params {where}: not base64: {exc}") from exc
    if len(raw) != 8 * size:
        raise UserInputError(
            f"predictor params {where}: {len(raw)} bytes, expected {size} float64"
            f" values ({8 * size} bytes)"
        )
    arr = np.frombuffer(raw, dtype="<f8")
    _finite(where, arr)
    return arr


# `meta` entries that `eval` reads back, with the check of each
_META_FIELDS = {"seed": json_int, "epochs": json_int, "train_frac": json_number,
                "val_frac": json_number}


def _check_meta(meta: object) -> dict:
    try:
        json_object(meta, "meta")
        for key, check in _META_FIELDS.items():
            if key in meta:
                check(meta[key], f"meta.{key}")
    except ValueError as exc:
        raise UserInputError(f"predictor params {exc}") from exc
    return meta


def _entry(doc: Mapping, key: str, where: str = "") -> object:
    if key not in doc:
        raise UserInputError(f"predictor params {where}{key}: missing")
    return doc[key]


def params_to_json(params: GnnParams) -> dict:
    """The version-2 params document: each tower's `flat` buffer and each norm
    vector as base64 little-endian float64.  Refuses non-finite values."""
    return {
        **_ENVELOPE,
        **{
            name: _encode(name, getattr(params, name).flat)
            for name in _TOWER_GLOB_DIMS
        },
        "norms": {
            name: _encode(f"norms.{name}", getattr(params.norms, name))
            for name in _norm_sizes()
        },
    }


def params_from_json(doc: Mapping) -> GnnParams:
    """Parameters of a version-2 document, every array bit-exact; sizes follow
    from HIDDEN_DIM, NODE_FEATURE_DIM and GLOBAL_DIM."""
    if not isinstance(doc, Mapping):
        raise UserInputError("predictor params: expected a JSON object")
    for key, want in _ENVELOPE.items():
        got = _entry(doc, key)
        if key == "version" and got == 1:
            raise UserInputError(
                "predictor params version: 1 is the retired text format;"
                " re-run `co2meter train` to write version 2"
            )
        if type(got) is not type(want) or got != want:
            raise UserInputError(f"predictor params {key}: {got!r}, expected {want!r}")

    towers = {}
    for name, glob_dim in _TOWER_GLOB_DIMS.items():
        shapes = _tower_shapes(NODE_FEATURE_DIM, glob_dim)
        flat = _decode(name, _entry(doc, name), sum(map(math.prod, shapes.values())))
        towers[name] = TowerParams(**_split(flat, shapes))
    norms_doc = _entry(doc, "norms")
    if not isinstance(norms_doc, Mapping):
        raise UserInputError("predictor params norms: expected a JSON object")
    norms = FeatureNorms(**{
        name: _decode(f"norms.{name}", _entry(norms_doc, name, "norms."), size).astype(float)
        for name, size in _norm_sizes().items()
    })
    return GnnParams(**towers, norms=norms)


def save_params_json(path: str | Path, params: GnnParams, meta: dict | None = None) -> None:
    doc = params_to_json(params)
    if meta:
        doc["meta"] = meta
    Path(path).write_text(json.dumps(doc, sort_keys=True, allow_nan=False))


def load_params_json(path: str | Path) -> tuple[GnnParams, dict]:
    doc = read_json(path, "predictor params")
    try:
        params = params_from_json(doc)
        meta = _check_meta(doc.get("meta", {}))
    except UserInputError as exc:
        raise UserInputError(f"{path}: {exc}") from exc
    return params, meta
