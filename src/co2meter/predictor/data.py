"""Training samples for the energy predictor: featurization and JSONL I/O.

A GraphSample is one request measured on one device: the LLM config, the
device, the measured prefill and total energies, and the phase inputs
`featurize` builds from them — the prefill kernel graph with prefill-phase
globals, and the mid-sequence decode graph with whole-request globals.
`featurize` is the one builder of these inputs and sets each one's phase, so
the records that hold them check only their labels.

Every `LayerGraph` holds its 12 kernels' rows in canonical node order, so the
node features of S graphs are one (S, 12, NODE_FEATURE_DIM) table
(`node_feature_tensor`): the rows from one `np.fromiter` pass, the arithmetic
intensity column computed from them, then the kind one-hot, one constant
block.

Datasets are JSONL in format version 3, one measurement per line: a JSON
object with sorted keys `"version": 3`, `config`, `device`, `prompt_len`,
`output_len`, `label_prefill_j` and `label_total_j`.  The writer inlines the
config and the device as objects of the fields `workload.config_from_json` /
`device_from_json` read, so a file keeps its features when a bundled asset
changes; a hand-written line may name either as `assets` does, a path being
read against the dataset file's directory.  The reader resolves each distinct
`config` and `device` once and rebuilds the predictor inputs with
`featurize`.  It refuses, with path and line, a missing or extra key, a
length that is not an integer >= 1, a label that is no finite positive JSON
number or a prefill label above the total, an unknown or malformed config or
device, and a request that `workload.check_fits` refuses.  Format 1 and 2
lines, which held the features instead, get a hint to re-run `co2meter dataset`.
"""

from __future__ import annotations

import json
import math
import os
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .. import assets
from ..errors import (Positive, Record, UserInputError, check_range, json_int, json_number,
                      json_object, read_text)
from ..workload import (KERNEL_KINDS, LAYER_KINDS, ROW_FIELDS, DeviceSpec, GlobalFeatures,
                        LayerGraph, LlmConfig, Request, check_fits, global_features,
                        layer_rows, timed_rows)

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

# The global feature vector: `GlobalFeatures`' numeric fields, then the phase flag.
GLOBAL_FEATURE_NAMES = (*(name for name in GlobalFeatures._fields
                          if name not in ("phase", "prefill_energy_j")), "phase_flag")

NODE_FEATURE_DIM = len(NUMERIC_NODE_FEATURES) + len(KERNEL_KINDS)
GLOBAL_DIM = len(GLOBAL_FEATURE_NAMES)
FORMAT_VERSION = 3
_LINE_KEYS = frozenset(("version", "config", "device", "prompt_len", "output_len",
                        "label_prefill_j", "label_total_j"))

# The kind one-hot of the layer's nodes in canonical order.
_KIND_ONE_HOT = np.eye(len(KERNEL_KINDS))[[KERNEL_KINDS.index(k) for k in LAYER_KINDS]]


class PredictorInputs(Record):
    """One request on one device as the predictor sees it: phase graphs and globals."""

    prefill_graph: LayerGraph
    prefill_globals: GlobalFeatures
    decode_graph: LayerGraph
    total_globals: GlobalFeatures


class GraphSample(PredictorInputs):
    """Predictor inputs, the config and device they came from, and measured energies."""

    config: LlmConfig
    device: DeviceSpec
    label_prefill_j: Positive
    label_total_j: Positive

    def __post_init__(self) -> None:
        if self.label_prefill_j > self.label_total_j:
            raise ValueError("labels must satisfy prefill <= total")

    @property
    def device_id(self) -> str:
        return self.device.name


def featurize(cfg: LlmConfig, req: Request, dev: DeviceSpec) -> PredictorInputs:
    """Roofline-timed prefill and mid-decode graphs with their globals;
    raises UserInputError like `kernel_costs` when `check_fits` refuses the request.
    It is the one builder of `PredictorInputs`, and sets each input's phase."""
    check_fits(cfg, req, dev)
    return PredictorInputs(
        LayerGraph(rows=timed_rows(layer_rows(cfg, req, "prefill"), dev), phase="prefill"),
        global_features(cfg, req, "prefill"),
        LayerGraph(rows=timed_rows(layer_rows(cfg, req, "decode"), dev), phase="decode"),
        global_features(cfg, req, "total"),
    )


def measured_sample(cfg: LlmConfig, req: Request, dev: DeviceSpec,
                    label_prefill_j: float, label_total_j: float) -> GraphSample:
    """The sample of one measurement: `featurize`'s inputs and the labels."""
    x = featurize(cfg, req, dev)
    return GraphSample(x.prefill_graph, x.prefill_globals, x.decode_graph, x.total_globals,
                       cfg, dev, label_prefill_j, label_total_j)


def node_feature_tensor(graphs: Sequence[LayerGraph]) -> np.ndarray:
    """Raw (S, 12, 18) node features of S graphs, nodes in canonical order:
    the 7 row columns, the arithmetic intensity, then a 10-wide kind one-hot.
    The intensity equals `workload.kernel_intensity` of a row's flops and moved
    bytes bit for bit while counts stay below 2**53, as float64 then holds
    them exactly."""
    shape = (len(graphs), len(LAYER_KINDS), len(ROW_FIELDS))
    cells = chain.from_iterable(chain.from_iterable(graph.rows for graph in graphs))
    rows = np.fromiter(cells, dtype=float, count=math.prod(shape)).reshape(shape)
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
    return np.array([*(float(getattr(gf, name)) for name in GLOBAL_FEATURE_NAMES[:-1]),
                     phase_flag])


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


def sample_to_json(sample: GraphSample) -> dict:
    """The format-3 line of a sample: its measurement, config and device inline."""
    return {
        "version": FORMAT_VERSION,
        "config": {name: getattr(sample.config, name) for name in LlmConfig._fields},
        "device": {name: getattr(sample.device, name) for name in DeviceSpec._fields},
        "prompt_len": sample.total_globals.prompt_len,
        "output_len": sample.total_globals.output_len,
        "label_prefill_j": sample.label_prefill_j,
        "label_total_j": sample.label_total_j,
    }


def _resolve(load: Callable, value: object, base: str, seen: dict) -> LlmConfig | DeviceSpec:
    """`load(value, base)`, an `assets` reader, once per distinct value of a
    file: `seen` is keyed on the value's repr, which tells 1, 1.0 and true
    apart where the values themselves compare equal."""
    token = (load, repr(value))
    if token not in seen:
        seen[token] = load(value, base)
    return seen[token]


def _sample_from_json(doc: object, base: str, seen: dict) -> GraphSample:
    """The sample of one parsed line; UserInputError for a line that is not
    format 3 or breaks one of its rules."""
    try:
        doc = json_object(doc, "dataset line")
        version = doc.get("version")
        if type(version) is not int or version != FORMAT_VERSION:
            found = "no version (format 1)" if version is None else f"version {version!r}"
            raise UserInputError(f"dataset line has {found}, expected version {FORMAT_VERSION};"
                                 " re-run `co2meter dataset` to write it")
        if doc.keys() != _LINE_KEYS:
            missing, extra = sorted(_LINE_KEYS - doc.keys()), sorted(doc.keys() - _LINE_KEYS)
            raise UserInputError(f"dataset line keys: missing {missing}, unexpected {extra}")
        req = Request(json_int(doc["prompt_len"], "prompt_len"),
                      json_int(doc["output_len"], "output_len"))
        labels = (json_number(doc["label_prefill_j"], "label_prefill_j"),
                  json_number(doc["label_total_j"], "label_total_j"))
        cfg = _resolve(assets.load_llm_config, doc["config"], base, seen)
        dev = _resolve(assets.load_device, doc["device"], base, seen)
        return measured_sample(cfg, req, dev, *map(float, labels))
    except ValueError as exc:
        raise UserInputError(f"malformed dataset line: {exc}") from exc


def write_dataset_jsonl(path: str | Path, samples: Iterable[GraphSample]) -> None:
    with open(path, "w") as fh:
        for sample in samples:
            fh.write(json.dumps(sample_to_json(sample), sort_keys=True, allow_nan=False))
            fh.write("\n")


def read_dataset_jsonl(path: str | Path) -> list[GraphSample]:
    """The samples of a format-3 dataset file; UserInputError naming the file,
    and the line where there is one, for anything it refuses."""
    base, seen, samples = os.path.dirname(path), {}, []
    for lineno, line in enumerate(read_text(path, "dataset").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad JSON, a huge int, deep nesting
            raise UserInputError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        try:
            samples.append(_sample_from_json(doc, base, seen))
        except UserInputError as exc:
            raise UserInputError(f"{path}:{lineno}: {exc}") from exc
    return samples
