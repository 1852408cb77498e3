"""Transformer inference workloads as per-layer kernel dataflow graphs.

A decoder layer is expanded into 12 kernels over 10 kinds (norm and residual
appear twice).  Every kernel carries exact FLOP and byte counts under dense,
fusion-free accounting: matrix multiplies cost 2*M*N*K FLOPs, softmax / norm /
residual / activation cost 5 / 7 / 2 / 4 FLOPs per element, and each kernel
loads its inputs (weights, activations, KV cache) and stores its outputs
exactly once.  Prefill processes the whole prompt in parallel; decode
processes one token against a KV cache of the given position.

Roofline helpers classify graphs against a device's compute/bandwidth roofs
and answer bandwidth/compute what-if questions.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import UserInputError

KERNEL_KINDS = (
    "qkv_proj",
    "attn_score",
    "softmax",
    "attn_value",
    "out_proj",
    "ffn_up",
    "ffn_act",
    "ffn_down",
    "norm",
    "residual",
)

GRAPH_PHASES = ("prefill", "decode")
FEATURE_PHASES = ("prefill", "total")

_BYTE_WIDTHS = (1, 2, 4)

MEMORY_BOUND = "memory_bound"
COMPUTE_BOUND = "compute_bound"


@dataclass(frozen=True)
class LlmConfig:
    """Shape of a decoder-only transformer plus its numeric byte widths."""

    name: str
    num_layers: int
    hidden_dim: int
    num_heads: int
    head_dim: int
    ffn_dim: int
    vocab_size: int
    weight_bytes: int = 1
    act_bytes: int = 2

    def __post_init__(self) -> None:
        for field in ("num_layers", "hidden_dim", "num_heads", "head_dim",
                      "ffn_dim", "vocab_size"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")
        if self.num_heads * self.head_dim != self.hidden_dim:
            raise ValueError("num_heads * head_dim must equal hidden_dim")
        if self.weight_bytes not in _BYTE_WIDTHS or self.act_bytes not in _BYTE_WIDTHS:
            raise ValueError(f"byte widths must be one of {_BYTE_WIDTHS}")


@dataclass(frozen=True)
class Request:
    """One inference request: prompt tokens in, generated tokens out."""

    prompt_len: int
    output_len: int

    def __post_init__(self) -> None:
        if self.prompt_len < 1 or self.output_len < 1:
            raise ValueError("prompt_len and output_len must be >= 1")


@dataclass(frozen=True)
class DeviceSpec:
    """Accelerator throughput/power envelope used for roofline estimates."""

    name: str
    peak_ops: float  # flops (or int ops) per second
    mem_bandwidth: float  # bytes per second
    idle_power: float  # watts
    active_power: float  # watts
    dram_capacity: float  # bytes

    def __post_init__(self) -> None:
        for field in ("peak_ops", "mem_bandwidth", "idle_power", "active_power",
                      "dram_capacity"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")
        if self.active_power < self.idle_power:
            raise ValueError("active_power must be >= idle_power")

    @property
    def ridge_point(self) -> float:
        """Arithmetic intensity (flops/byte) where the two roofs meet."""
        return self.peak_ops / self.mem_bandwidth


@dataclass(frozen=True)
class KernelNode:
    """One kernel invocation with its dense FLOP/byte accounting."""

    kind: str
    flops: int
    weight_bytes_loaded: int = 0
    act_bytes_loaded: int = 0
    act_bytes_stored: int = 0
    kv_bytes_loaded: int = 0
    kv_bytes_stored: int = 0
    est_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        for field in ("flops", "weight_bytes_loaded", "act_bytes_loaded",
                      "act_bytes_stored", "kv_bytes_loaded", "kv_bytes_stored"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be >= 0")
        if self.est_time_s < 0:
            raise ValueError("est_time_s must be >= 0")

    @property
    def total_bytes(self) -> int:
        return (self.weight_bytes_loaded + self.act_bytes_loaded
                + self.act_bytes_stored + self.kv_bytes_loaded
                + self.kv_bytes_stored)

    @property
    def arithmetic_intensity(self) -> float:
        """flops per moved byte; 0 when the kernel moves no bytes."""
        total = self.total_bytes
        return self.flops / total if total > 0 else 0.0


@dataclass(frozen=True)
class LayerGraph:
    """Directed acyclic dataflow graph of one decoder layer's kernels."""

    nodes: tuple[KernelNode, ...]
    edges: tuple[tuple[int, int], ...]
    phase: str

    def __post_init__(self) -> None:
        if self.phase not in GRAPH_PHASES:
            raise ValueError(f"unknown graph phase {self.phase!r}")
        if not self.nodes:
            raise ValueError("graph needs at least one node")
        # The decoder-layer topology is checked once, at import.
        if not (self.edges is _LAYER_EDGES and len(self.nodes) == _LAYER_NODES):
            _check_topology(len(self.nodes), self.edges)


def _check_topology(n: int, edges: Sequence[tuple[int, int]]) -> None:
    """Raise ValueError unless the edges form a weakly connected DAG on n nodes."""
    for src, dst in edges:
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"edge ({src}, {dst}) out of range")
        if src == dst:
            raise ValueError("self-loops are not allowed")
    _kahn_order(n, edges)  # raises on cycles
    if n > 1 and _component_count(n, edges) != 1:
        raise ValueError("graph must be weakly connected")


def topological_order(graph: LayerGraph) -> list[int]:
    """Kahn's algorithm; raises ValueError if the graph has a cycle."""
    return _kahn_order(len(graph.nodes), graph.edges)


def _kahn_order(n: int, edges: Sequence[tuple[int, int]]) -> list[int]:
    indeg = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for src, dst in edges:
        indeg[dst] += 1
        out[src].append(dst)
    ready = [v for v in range(n) if indeg[v] == 0]
    order: list[int] = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if len(order) != n:
        raise ValueError("graph contains a cycle")
    return order


def _component_count(n: int, edges: Sequence[tuple[int, int]]) -> int:
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for src, dst in edges:
        a, b = find(src), find(dst)
        if a != b:
            parent[a] = b
    return len({find(v) for v in range(n)})


def in_neighbor_lists(graph: LayerGraph) -> tuple[tuple[int, ...], ...]:
    """Per-node tuple of predecessor indices (dataflow inputs)."""
    preds: list[list[int]] = [[] for _ in graph.nodes]
    for src, dst in graph.edges:
        preds[dst].append(src)
    return tuple(tuple(p) for p in preds)


# Node indices within one layer graph, in construction order.
_N_NORM1, _N_QKV, _N_SCORE, _N_SOFTMAX, _N_VALUE, _N_OUT = range(6)
_N_RES1, _N_NORM2, _N_FFN_UP, _N_FFN_ACT, _N_FFN_DOWN, _N_RES2 = range(6, 12)

_LAYER_EDGES = (
    (_N_NORM1, _N_QKV),
    (_N_QKV, _N_SCORE),
    (_N_SCORE, _N_SOFTMAX),
    (_N_SOFTMAX, _N_VALUE),
    (_N_QKV, _N_VALUE),
    (_N_VALUE, _N_OUT),
    (_N_OUT, _N_RES1),
    (_N_RES1, _N_NORM2),
    (_N_NORM2, _N_FFN_UP),
    (_N_FFN_UP, _N_FFN_ACT),
    (_N_FFN_ACT, _N_FFN_DOWN),
    (_N_FFN_DOWN, _N_RES2),
    (_N_RES1, _N_RES2),
)
_LAYER_NODES = 12
_check_topology(_LAYER_NODES, _LAYER_EDGES)


def build_layer_graph(
    cfg: LlmConfig,
    req: Request,
    phase: str,
    position: int | None = None,
) -> LayerGraph:
    """Expand one decoder layer into its kernel graph for a phase.

    Prefill runs `req.prompt_len` tokens in parallel with self-attention over
    the prompt.  Decode runs one token against a KV cache of length
    `position`; when omitted, the position defaults to the mid-sequence token
    prompt_len + output_len // 2.
    """
    if phase not in GRAPH_PHASES:
        raise ValueError(f"unknown phase {phase!r}")
    if phase == "prefill":
        tokens = req.prompt_len
        kv_len = req.prompt_len
    else:
        tokens = 1
        kv_len = _decode_position(req, position)

    d, f, h = cfg.hidden_dim, cfg.ffn_dim, cfg.num_heads
    ab, wb = cfg.act_bytes, cfg.weight_bytes
    t, s = tokens, kv_len

    def norm() -> KernelNode:
        return KernelNode("norm", flops=7 * t * d, weight_bytes_loaded=2 * d * wb,
                          act_bytes_loaded=t * d * ab, act_bytes_stored=t * d * ab)

    def residual() -> KernelNode:
        return KernelNode("residual", flops=2 * t * d,
                          act_bytes_loaded=2 * t * d * ab,
                          act_bytes_stored=t * d * ab)

    nodes = (
        norm(),
        KernelNode("qkv_proj", flops=6 * t * d * d,
                   weight_bytes_loaded=3 * d * d * wb,
                   act_bytes_loaded=t * d * ab, act_bytes_stored=t * d * ab,
                   kv_bytes_stored=2 * t * d * ab),
        KernelNode("attn_score", flops=2 * t * s * d,
                   act_bytes_loaded=t * d * ab, kv_bytes_loaded=s * d * ab,
                   act_bytes_stored=h * t * s * ab),
        KernelNode("softmax", flops=5 * h * t * s,
                   act_bytes_loaded=h * t * s * ab,
                   act_bytes_stored=h * t * s * ab),
        KernelNode("attn_value", flops=2 * t * s * d,
                   act_bytes_loaded=h * t * s * ab, kv_bytes_loaded=s * d * ab,
                   act_bytes_stored=t * d * ab),
        KernelNode("out_proj", flops=2 * t * d * d,
                   weight_bytes_loaded=d * d * wb,
                   act_bytes_loaded=t * d * ab, act_bytes_stored=t * d * ab),
        residual(),
        norm(),
        KernelNode("ffn_up", flops=2 * t * d * f,
                   weight_bytes_loaded=d * f * wb,
                   act_bytes_loaded=t * d * ab, act_bytes_stored=t * f * ab),
        KernelNode("ffn_act", flops=4 * t * f,
                   act_bytes_loaded=t * f * ab, act_bytes_stored=t * f * ab),
        KernelNode("ffn_down", flops=2 * t * d * f,
                   weight_bytes_loaded=d * f * wb,
                   act_bytes_loaded=t * f * ab, act_bytes_stored=t * d * ab),
        residual(),
    )
    return LayerGraph(nodes=nodes, edges=_LAYER_EDGES, phase=phase)


def _decode_position(req: Request, position: int | None) -> int:
    """The KV position of a decode graph; None means mid-sequence."""
    if position is None:
        return req.prompt_len + req.output_len // 2
    if not 1 <= position <= req.prompt_len + req.output_len:
        raise ValueError(
            f"decode position {position} outside [1, "
            f"{req.prompt_len + req.output_len}]"
        )
    return position


_COUNT_FIELDS = ("flops", "weight_bytes_loaded", "act_bytes_loaded",
                 "act_bytes_stored", "kv_bytes_loaded", "kv_bytes_stored")


@dataclass(frozen=True)
class RequestKernels:
    """A request's kernels: its prefill graph and decode graphs at KV positions 1 and 2.

    Every decode count is affine in the KV position, so the two decode graphs
    give the graph at any position exactly, in integer arithmetic.
    """

    req: Request
    prefill: LayerGraph
    first: LayerGraph
    second: LayerGraph

    def decode(self, position: int | None = None) -> LayerGraph:
        """The decode graph at a KV position (default mid-sequence), as
        `build_layer_graph` builds it."""
        offset = _decode_position(self.req, position) - 1
        nodes = tuple(
            KernelNode(a.kind, **{
                f: getattr(a, f) + offset * (getattr(b, f) - getattr(a, f))
                for f in _COUNT_FIELDS
            })
            for a, b in zip(self.first.nodes, self.second.nodes)
        )
        return LayerGraph(nodes=nodes, edges=_LAYER_EDGES, phase="decode")


def request_kernels(cfg: LlmConfig, req: Request) -> RequestKernels:
    """Build a request's three layer graphs once; every consumer reads them."""
    return RequestKernels(
        req,
        build_layer_graph(cfg, req, "prefill"),
        build_layer_graph(cfg, req, "decode", position=1),
        build_layer_graph(cfg, req, "decode", position=2),
    )


def graph_flops(graph: LayerGraph) -> int:
    return sum(n.flops for n in graph.nodes)


def graph_bytes(graph: LayerGraph) -> int:
    return sum(n.total_bytes for n in graph.nodes)


# ---------------------------------------------------------------------------
# Roofline


def roofline_time(node: KernelNode, dev: DeviceSpec) -> float:
    """Latency lower bound: max of compute time and memory-move time."""
    return max(node.flops / dev.peak_ops, node.total_bytes / dev.mem_bandwidth)


def graph_time(graph: LayerGraph, dev: DeviceSpec) -> float:
    """Sum of per-kernel roofline times for one layer."""
    return sum(roofline_time(n, dev) for n in graph.nodes)


def apply_roofline(graph: LayerGraph, dev: DeviceSpec) -> LayerGraph:
    """Copy of the graph with est_time_s populated from the device roofline."""
    nodes = tuple(
        dataclasses.replace(n, est_time_s=roofline_time(n, dev))
        for n in graph.nodes
    )
    return dataclasses.replace(graph, nodes=nodes)


def phase_intensity(graph: LayerGraph) -> float:
    """Aggregate arithmetic intensity (total flops / total bytes)."""
    total = graph_bytes(graph)
    if total <= 0:
        raise ValueError("graph moves no bytes")
    return graph_flops(graph) / total


def classify(graph: LayerGraph, dev: DeviceSpec) -> str:
    """memory_bound when aggregate intensity sits at or below the ridge."""
    return MEMORY_BOUND if phase_intensity(graph) <= dev.ridge_point else COMPUTE_BOUND


def classify_node(node: KernelNode, dev: DeviceSpec) -> str:
    return MEMORY_BOUND if node.arithmetic_intensity <= dev.ridge_point else COMPUTE_BOUND


def scaled_device(
    dev: DeviceSpec,
    compute_factor: float = 1.0,
    bandwidth_factor: float = 1.0,
) -> DeviceSpec:
    """Device with peak_ops/mem_bandwidth scaled (factors must be positive)."""
    return dataclasses.replace(
        dev,
        name=f"{dev.name}[x{compute_factor:g}ops,x{bandwidth_factor:g}bw]",
        peak_ops=dev.peak_ops * compute_factor,
        mem_bandwidth=dev.mem_bandwidth * bandwidth_factor,
    )


def whatif_speedup(
    cfg: LlmConfig,
    req: Request,
    phase: str,
    base: DeviceSpec,
    modified: DeviceSpec,
    position: int | None = None,
) -> float:
    """Ratio of summed roofline times: base device over modified device."""
    graph = build_layer_graph(cfg, req, phase, position=position)
    return graph_time(graph, base) / graph_time(graph, modified)


# ---------------------------------------------------------------------------
# Global (whole-request) features


@dataclass(frozen=True)
class GlobalFeatures:
    """Request-level summary features for one prediction phase."""

    total_ops: float
    layer_count: int
    hidden_dim: int
    ffn_dim: int
    prompt_len: int
    output_len: int
    weight_memory_bytes: float
    kv_cache_bytes: float
    phase: str  # "prefill" or "total"
    prefill_energy_j: float | None = None

    def __post_init__(self) -> None:
        if self.phase not in FEATURE_PHASES:
            raise ValueError(f"unknown feature phase {self.phase!r}")
        if self.phase == "prefill" and self.prefill_energy_j is not None:
            raise ValueError("prefill_energy_j only applies to the total phase")
        if self.prefill_energy_j is not None and self.prefill_energy_j <= 0:
            raise ValueError("prefill_energy_j must be positive when present")


def param_count(cfg: LlmConfig) -> int:
    """All weight-tensor elements: embedding, per-layer blocks, final norm."""
    d, f = cfg.hidden_dim, cfg.ffn_dim
    per_layer = 4 * d * d + 2 * d * f + 4 * d
    return cfg.vocab_size * d + cfg.num_layers * per_layer + 2 * d


def weight_memory_bytes(cfg: LlmConfig) -> int:
    return param_count(cfg) * cfg.weight_bytes


def kv_cache_bytes(cfg: LlmConfig, seq_len: int) -> int:
    """K and V caches across all layers at a given sequence length."""
    if seq_len < 0:
        raise ValueError("seq_len must be >= 0")
    return 2 * cfg.num_layers * cfg.hidden_dim * seq_len * cfg.act_bytes


def global_features(
    cfg: LlmConfig,
    req: Request,
    phase: str,
    prefill_energy_j: float | None = None,
    kernels: RequestKernels | None = None,
) -> GlobalFeatures:
    """Aggregate features for the prefill phase or the whole request.

    `kernels`, when given, must be `request_kernels(cfg, req)`; it saves
    rebuilding the graphs.
    """
    if phase not in FEATURE_PHASES:
        raise ValueError(f"unknown feature phase {phase!r}")
    if kernels is None:
        kernels = request_kernels(cfg, req)
    prefill_ops = graph_flops(kernels.prefill)
    if phase == "prefill":
        total_ops = prefill_ops * cfg.num_layers
        seq_len = req.prompt_len
    else:
        decode_ops = graph_flops(kernels.decode())
        total_ops = (prefill_ops + req.output_len * decode_ops) * cfg.num_layers
        seq_len = req.prompt_len + req.output_len
    return GlobalFeatures(
        total_ops=float(total_ops),
        layer_count=cfg.num_layers,
        hidden_dim=cfg.hidden_dim,
        ffn_dim=cfg.ffn_dim,
        prompt_len=req.prompt_len,
        output_len=req.output_len,
        weight_memory_bytes=float(weight_memory_bytes(cfg)),
        kv_cache_bytes=float(kv_cache_bytes(cfg, seq_len)),
        phase=phase,
        prefill_energy_j=prefill_energy_j,
    )


def with_prefill_energy(globals_: GlobalFeatures, energy_j: float) -> GlobalFeatures:
    if globals_.phase != "total":
        raise ValueError("prefill energy attaches to total-phase features")
    return dataclasses.replace(globals_, prefill_energy_j=energy_j)


# ---------------------------------------------------------------------------
# JSON I/O

_DEVICE_FIELDS = ("name", "peak_ops", "mem_bandwidth", "idle_power",
                  "active_power", "dram_capacity")
_CONFIG_FIELDS = ("name", "num_layers", "hidden_dim", "num_heads", "head_dim",
                  "ffn_dim", "vocab_size", "weight_bytes", "act_bytes")


def device_from_json(doc: Mapping) -> DeviceSpec:
    try:
        return DeviceSpec(**{k: doc[k] for k in _DEVICE_FIELDS})
    except (KeyError, TypeError, ValueError) as exc:
        raise UserInputError(f"malformed device spec: {exc}") from exc


def device_to_json(dev: DeviceSpec) -> dict:
    return {k: getattr(dev, k) for k in _DEVICE_FIELDS}


def load_device_json(path: str | Path) -> DeviceSpec:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UserInputError(f"cannot read device spec {path}: {exc}") from exc
    return device_from_json(doc)


def config_from_json(doc: Mapping) -> LlmConfig:
    try:
        return LlmConfig(**{k: doc[k] for k in _CONFIG_FIELDS if k in doc})
    except (KeyError, TypeError, ValueError) as exc:
        raise UserInputError(f"malformed llm config: {exc}") from exc


def config_to_json(cfg: LlmConfig) -> dict:
    return {k: getattr(cfg, k) for k in _CONFIG_FIELDS}


def load_config_json(path: str | Path) -> LlmConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UserInputError(f"cannot read llm config {path}: {exc}") from exc
    return config_from_json(doc)
