"""Training samples for the energy predictor: featurization and JSONL I/O.

A GraphSample is one inference request measured on one device.  It carries
phase-specific inputs — the prefill kernel graph with prefill-phase globals,
and the decode-representative kernel graph (mid-sequence position) with
whole-request globals — plus the measured prefill and total energies.

Every `LayerGraph` holds its 12 kernels' rows in canonical node order, so the
node features of S graphs are one (S, 12, NODE_FEATURE_DIM) table
(`node_feature_tensor`): the rows from one `np.array` call, the arithmetic
intensity column computed from them, then the kind one-hot, one constant
block.

Datasets are JSONL, one sample per line, in format version 2.  Each line is
a JSON object with sorted keys: `"version": 2`, `device_id`, the two labels
(`label_prefill_j`, `label_total_j`), `prefill_globals` / `total_globals`
(the `GlobalFeatures` fields by name) and `prefill_graph` / `decode_graph`,
each `{"phase": ..., "rows": [...]}` with 12 rows of the six `COUNT_FIELDS`
then `est_time_s`, in `LAYER_KINDS` order.  A graph is checked in one pass
over its rows: anything but 12 rows of 7, counts that are exact
non-negative integers and a non-negative `est_time_s`, all of which a float
can hold, is refused with path and line, as are global features and labels
that are no finite JSON numbers (the `errors` rule) or are negative.
Version 1 lines (24 keyed node dicts and 13 edges per sample, no
`version`) are refused with a hint to re-run `co2meter dataset`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import (Positive, Record, UserInputError, check_range, json_int, json_name,
                      json_number)
from ..workload import KERNEL_KINDS, LAYER_KINDS, ROW_FIELDS, GlobalFeatures, LayerGraph

NUMERIC_NODE_FEATURES = (
    "flops",
    "weight_bytes_loaded",
    "act_bytes_loaded",
    "act_bytes_stored",
    "kv_bytes_loaded",
    "kv_bytes_stored",
    "est_time_s",
    "arithmetic_intensity",
)

# The `GlobalFeatures` fields of the global feature vector, in its order, with
# their type: a dataset line holds each by name, integers as exact ints.
_GLOBAL_FIELDS = (
    ("total_ops", float), ("layer_count", int), ("hidden_dim", int), ("ffn_dim", int),
    ("prompt_len", int), ("output_len", int), ("weight_memory_bytes", float),
    ("kv_cache_bytes", float),
)
GLOBAL_FEATURE_NAMES = (*(name for name, _ in _GLOBAL_FIELDS), "phase_flag")

NODE_FEATURE_DIM = len(NUMERIC_NODE_FEATURES) + len(KERNEL_KINDS)
GLOBAL_DIM = len(GLOBAL_FEATURE_NAMES)
FORMAT_VERSION = 2

# The kind one-hot of the layer's nodes in canonical order.
_KIND_ONE_HOT = np.eye(len(KERNEL_KINDS))[[KERNEL_KINDS.index(k) for k in LAYER_KINDS]]


class PredictorInputs(Record):
    """One request on one device as the predictor sees it: phase graphs and globals."""

    prefill_graph: LayerGraph
    prefill_globals: GlobalFeatures
    decode_graph: LayerGraph
    total_globals: GlobalFeatures

    def __post_init__(self) -> None:
        if self.prefill_graph.phase != "prefill":
            raise ValueError("prefill_graph must be a prefill-phase graph")
        if self.decode_graph.phase != "decode":
            raise ValueError("decode_graph must be a decode-phase graph")
        if self.prefill_globals.phase != "prefill":
            raise ValueError("prefill_globals must be prefill-phase features")
        if self.total_globals.phase != "total":
            raise ValueError("total_globals must be total-phase features")


class GraphSample(PredictorInputs):
    """Predictor inputs with the device and the measured phase energies."""

    device_id: str
    label_prefill_j: Positive
    label_total_j: Positive

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.label_prefill_j > self.label_total_j:
            raise ValueError("labels must satisfy prefill <= total")


def node_feature_tensor(graphs: Sequence[LayerGraph]) -> np.ndarray:
    """Raw (S, 12, 18) node features of S graphs, nodes in canonical order:
    the 7 row columns, the arithmetic intensity, then a 10-wide kind one-hot.
    The intensity equals `workload.kernel_intensity` of a row's flops and moved
    bytes bit for bit while counts stay below 2**53, as float64 then holds
    them exactly."""
    rows = np.array([graph.rows for graph in graphs], dtype=float).reshape(
        len(graphs), len(LAYER_KINDS), len(ROW_FIELDS))
    moved = rows[..., 1:6].sum(axis=2)
    intensity = np.divide(rows[..., 0], moved, out=np.zeros_like(moved), where=moved > 0)
    one_hot = np.broadcast_to(_KIND_ONE_HOT, (len(graphs), *_KIND_ONE_HOT.shape))
    return np.concatenate([rows, intensity[..., None], one_hot], axis=2)


def node_feature_matrix(graph: LayerGraph) -> np.ndarray:
    """Raw (12, 18) node features of one graph."""
    return node_feature_tensor([graph])[0]


def globals_vector(gf: GlobalFeatures) -> np.ndarray:
    """Raw global feature vector (the prefill-energy slot is not part of it)."""
    phase_flag = 0.0 if gf.phase == "prefill" else 1.0
    return np.array([*(float(getattr(gf, name)) for name, _ in _GLOBAL_FIELDS), phase_flag])


def split_indices(
    n: int, train_frac: float, val_frac: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic shuffled train/val/test index split; val and test may be empty."""
    check_range(train_frac, "Positive", "train_frac")
    check_range(val_frac, "NonNegative", "val_frac")
    if train_frac + val_frac > 1:
        raise ValueError("invalid split fractions")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(round(n * train_frac))
    n_val = int(round(n * val_frac))
    return (
        perm[:n_train],
        perm[n_train:n_train + n_val],
        perm[n_train + n_val:],
    )


# ---------------------------------------------------------------------------
# JSONL serialization


def _graph_to_json(graph: LayerGraph) -> dict:
    return {"phase": graph.phase, "rows": graph.rows}


def _graph_from_json(doc: Mapping, name: str) -> LayerGraph:
    try:
        return LayerGraph(rows=doc["rows"], phase=doc["phase"])
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def _globals_to_json(gf: GlobalFeatures) -> dict:
    return {**{name: getattr(gf, name) for name, _ in _GLOBAL_FIELDS}, "phase": gf.phase}


def _global_from_json(value: object, name: str, kind: type) -> int | float:
    """A global feature field: a number a float can hold, an exact int where
    the field is one."""
    if kind is int:
        json_int(value, name)
    return kind(json_number(value, name))


def _globals_from_json(doc: Mapping, field: str) -> GlobalFeatures:
    try:
        return GlobalFeatures(
            **{name: _global_from_json(doc[name], name, kind) for name, kind in _GLOBAL_FIELDS},
            phase=doc["phase"],
        )
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from exc


def sample_to_json(sample: GraphSample) -> dict:
    """The format-version-2 line of a sample."""
    return {
        "version": FORMAT_VERSION,
        "device_id": sample.device_id,
        "prefill_graph": _graph_to_json(sample.prefill_graph),
        "prefill_globals": _globals_to_json(sample.prefill_globals),
        "decode_graph": _graph_to_json(sample.decode_graph),
        "total_globals": _globals_to_json(sample.total_globals),
        "label_prefill_j": sample.label_prefill_j,
        "label_total_j": sample.label_total_j,
    }


def sample_from_json(doc: Mapping) -> GraphSample:
    try:
        version = doc["version"] if "version" in doc else None
        if type(version) is not int or version != FORMAT_VERSION:
            found = "no version (format 1)" if version is None else f"version {version!r}"
            raise UserInputError(
                f"dataset line has {found}, expected version {FORMAT_VERSION};"
                " re-run `co2meter dataset` to write it"
            )
        return GraphSample(
            device_id=json_name(doc["device_id"], "device_id"),
            prefill_graph=_graph_from_json(doc["prefill_graph"], "prefill_graph"),
            prefill_globals=_globals_from_json(doc["prefill_globals"], "prefill_globals"),
            decode_graph=_graph_from_json(doc["decode_graph"], "decode_graph"),
            total_globals=_globals_from_json(doc["total_globals"], "total_globals"),
            label_prefill_j=float(json_number(doc["label_prefill_j"], "label_prefill_j")),
            label_total_j=float(json_number(doc["label_total_j"], "label_total_j")),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UserInputError(f"malformed graph sample: {exc}") from exc


def write_dataset_jsonl(path: str | Path, samples: Iterable[GraphSample]) -> None:
    with open(path, "w") as fh:
        for sample in samples:
            fh.write(json.dumps(sample_to_json(sample), sort_keys=True, allow_nan=False))
            fh.write("\n")


def read_dataset_jsonl(path: str | Path) -> list[GraphSample]:
    samples = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UserInputError(f"cannot read dataset {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad JSON, a huge int, deep nesting
            raise UserInputError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        try:
            samples.append(sample_from_json(doc))
        except UserInputError as exc:
            raise UserInputError(f"{path}:{lineno}: {exc}") from exc
    return samples
