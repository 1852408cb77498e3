"""Transformer inference workloads as per-layer kernel dataflow graphs.

A decoder layer is expanded into 12 kernels over 10 kinds (norm and residual
appear twice).  Every kernel carries exact FLOP and byte counts under dense,
fusion-free accounting: matrix multiplies cost 2*M*N*K FLOPs, softmax / norm /
residual / activation cost 5 / 7 / 2 / 4 FLOPs per element, and each kernel
loads its inputs (weights, activations, KV cache) and stores its outputs
exactly once.  Prefill processes the whole prompt in parallel; decode
processes one token against a KV cache of the given position.
`_layer_counts` is the one place these counts are written: it returns the 12
kernels' count rows in canonical node order (`layer_rows` for a phase).

The request-level paths (estimate, whatif, roofline, the oracle) read count
rows and build no graph: `kernel_costs` prices each kernel of a request,
`phase_totals` sums its rows per phase (`request_energy` keeps the joules),
`layer_intensity`/`kernel_intensity` give intensities and `whatif_speedup`
sums `timed_rows` (each row's roofline time).  A `LayerGraph` holds one
layer's rows with their times, the predictor's input together with
`global_features`, whose op counts come in O(1) from the cached layer line as
`check_fits`' bounds do.  `build_layer_graph` / `apply_roofline` make a graph,
and its `KernelNode`s are built only when asked for.  It stores the rows it is
given as they are: only program code builds rows, and `featurize` builds them
after `check_fits` has bounded every count, time and energy (a property test
holds that each is six exact non-negative ints and a finite time).  A graph
given as nodes and edges is that layer up to node relabelling (`_layer_slots`
decides), stored in canonical order.  The tests' reference oracle, which
prices each node of a graph per decode position, is `tests/oracle_reference.py`.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import (NonNegative, Positive, Record, UserInputError, json_int, json_name,
                     json_number, json_object, read_json, replace)

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


class LlmConfig(Record):
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


class Request(Record):
    """One inference request: prompt tokens in, generated tokens out."""

    prompt_len: int
    output_len: int

    def __post_init__(self) -> None:
        if self.prompt_len < 1 or self.output_len < 1:
            raise ValueError("prompt_len and output_len must be >= 1")


class DeviceSpec(Record):
    """Accelerator throughput/power envelope used for roofline estimates."""

    name: str
    peak_ops: Positive  # flops (or int ops) per second
    mem_bandwidth: Positive  # bytes per second
    idle_power: Positive  # watts
    active_power: Positive  # watts
    dram_capacity: Positive  # bytes

    def __post_init__(self) -> None:
        if self.active_power < self.idle_power:
            raise ValueError("active_power must be >= idle_power")

    @property
    def ridge_point(self) -> float:
        """Arithmetic intensity (flops/byte) where the two roofs meet."""
        return self.peak_ops / self.mem_bandwidth


COUNT_FIELDS = ("flops", "weight_bytes_loaded", "act_bytes_loaded",
                "act_bytes_stored", "kv_bytes_loaded", "kv_bytes_stored")


class KernelNode(Record):
    """One kernel invocation with its dense FLOP/byte accounting."""

    kind: str
    flops: NonNegative  # the six counts are ints
    weight_bytes_loaded: NonNegative = 0
    act_bytes_loaded: NonNegative = 0
    act_bytes_stored: NonNegative = 0
    kv_bytes_loaded: NonNegative = 0
    kv_bytes_stored: NonNegative = 0
    est_time_s: NonNegative = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")


# Node indices within one layer graph, in canonical order.
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
LAYER_KINDS = ("norm", "qkv_proj", "attn_score", "softmax", "attn_value", "out_proj",
               "residual", "norm", "ffn_up", "ffn_act", "ffn_down", "residual")
# In-neighbors of each node of the layer graph, in canonical node order.
LAYER_PREDS = tuple(tuple(s for s, d in _LAYER_EDGES if d == v) for v in range(_LAYER_NODES))
# (kind, in-degree) names each node of the layer graph: the two norms have
# in-degree 0 and 1, the two residuals 1 and 2.
_LAYER_SLOTS = {
    (kind, len(ps)): v for v, (kind, ps) in enumerate(zip(LAYER_KINDS, LAYER_PREDS))
}
# A graph row: the six `COUNT_FIELDS`, then est_time_s.
ROW_FIELDS = (*COUNT_FIELDS, "est_time_s")


class LayerGraph(Record):
    """Dataflow graph of one decoder layer's 12 kernels (`_LAYER_EDGES` over
    `LAYER_KINDS`), held as one row per kernel in canonical node order: the
    six `COUNT_FIELDS`, then `est_time_s`.

    `LayerGraph(rows=..., phase=...)` stores the rows as given, as a tuple
    of tuples (see the module docstring for what holds them in range).
    `LayerGraph(nodes, edges, phase)` takes the layer's `KernelNode`s under
    any node relabelling and stores their rows in canonical order; another
    topology raises ValueError.  `nodes` are built from the rows on first
    access."""

    rows: tuple[tuple[int | float, ...], ...]
    phase: str

    def __init__(self, nodes: Sequence[KernelNode] | None = None,
                 edges: Sequence[tuple[int, int]] = _LAYER_EDGES, phase: str = "", *,
                 rows: Sequence[Sequence[int | float]] | None = None) -> None:
        if phase not in GRAPH_PHASES:
            raise ValueError(f"unknown graph phase {phase!r}")
        if (rows is None) == (nodes is None):
            raise TypeError("a LayerGraph takes nodes and edges, or rows")
        if nodes is not None:
            nodes = tuple(nodes)
            if tuple(edges) != _LAYER_EDGES or tuple(n.kind for n in nodes) != LAYER_KINDS:
                slots = _layer_slots(nodes, edges)
                nodes = tuple(n for _, n in sorted(zip(slots, nodes)))
            rows = [[getattr(n, f) for f in ROW_FIELDS] for n in nodes]
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))
        object.__setattr__(self, "phase", phase)

    @property
    def nodes(self) -> tuple[KernelNode, ...]:
        if "_nodes" not in self.__dict__:
            self.__dict__["_nodes"] = tuple(
                KernelNode(kind, *row) for kind, row in zip(LAYER_KINDS, self.rows))
        return self.__dict__["_nodes"]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return _LAYER_EDGES


def in_neighbor_lists(graph: LayerGraph) -> tuple[tuple[int, ...], ...]:
    """Per-node tuple of predecessor indices (dataflow inputs): `LAYER_PREDS`,
    since every graph is in canonical node order."""
    return LAYER_PREDS


def _layer_slots(nodes: Sequence[KernelNode], edges: Sequence[tuple[int, int]]) -> list[int]:
    """Each node's slot in the canonical node order; ValueError unless the graph
    is the decoder layer up to relabelling, a duplicated edge included."""
    n = len(nodes)
    # An endpoint outside 0..11 would index another node (-1) or raise IndexError.
    if n != _LAYER_NODES or not all(0 <= v < n for edge in edges for v in edge):
        raise ValueError("graph is not the decoder-layer topology")
    indegree = Counter(dst for _, dst in edges)
    slots = [_LAYER_SLOTS.get((node.kind, indegree[v]), -1) for v, node in enumerate(nodes)]
    # Matching edges make slots a bijection: each of the 12 slots is an endpoint
    # of a layer edge, hence some node's slot, and there are 12 nodes.
    if sorted((slots[s], slots[d]) for s, d in edges) != sorted(_LAYER_EDGES):
        raise ValueError("graph is not the decoder-layer topology")
    return slots


def _layer_counts(cfg: LlmConfig, t: int, s: int) -> list[tuple[int, ...]]:
    """The `COUNT_FIELDS` of each layer kernel, in canonical node order, for t
    tokens attending over s KV positions.  Every count is affine in s."""
    d, f, h = cfg.hidden_dim, cfg.ffn_dim, cfg.num_heads
    ab, wb = cfg.act_bytes, cfg.weight_bytes
    norm = (7 * t * d, 2 * d * wb, t * d * ab, t * d * ab, 0, 0)
    residual = (2 * t * d, 0, 2 * t * d * ab, t * d * ab, 0, 0)
    return [
        norm,
        (6 * t * d * d, 3 * d * d * wb, t * d * ab, t * d * ab, 0, 2 * t * d * ab),  # qkv_proj
        (2 * t * s * d, 0, t * d * ab, h * t * s * ab, s * d * ab, 0),  # attn_score
        (5 * h * t * s, 0, h * t * s * ab, h * t * s * ab, 0, 0),  # softmax
        (2 * t * s * d, 0, h * t * s * ab, t * d * ab, s * d * ab, 0),  # attn_value
        (2 * t * d * d, d * d * wb, t * d * ab, t * d * ab, 0, 0),  # out_proj
        residual,
        norm,
        (2 * t * d * f, d * f * wb, t * d * ab, t * f * ab, 0, 0),  # ffn_up
        (4 * t * f, 0, t * f * ab, t * f * ab, 0, 0),  # ffn_act
        (2 * t * d * f, d * f * wb, t * f * ab, t * d * ab, 0, 0),  # ffn_down
        residual,
    ]


def layer_rows(cfg: LlmConfig, req: Request, phase: str,
               position: int | None = None) -> list[tuple[int, ...]]:
    """One decoder layer's count rows for a phase, in canonical node order.

    Prefill runs `req.prompt_len` tokens in parallel with self-attention over
    the prompt.  Decode runs one token against a KV cache of length
    `position`; when omitted, the position defaults to the mid-sequence token
    prompt_len + output_len // 2.
    """
    if phase not in GRAPH_PHASES:
        raise ValueError(f"unknown phase {phase!r}")
    if phase == "prefill":
        return _layer_counts(cfg, req.prompt_len, req.prompt_len)
    if position is None:
        position = req.prompt_len + req.output_len // 2
    elif not 1 <= position <= req.prompt_len + req.output_len:
        raise ValueError(
            f"decode position {position} outside [1, {req.prompt_len + req.output_len}]"
        )
    return _layer_counts(cfg, 1, position)


def build_layer_graph(cfg: LlmConfig, req: Request, phase: str,
                      position: int | None = None) -> LayerGraph:
    """One decoder layer's kernel graph for a phase: `layer_rows` with zero times."""
    rows = layer_rows(cfg, req, phase, position)
    return LayerGraph(rows=[(*row, 0.0) for row in rows], phase=phase)


def graph_flops(graph: LayerGraph) -> int:
    return sum(row[0] for row in graph.rows)


# ---------------------------------------------------------------------------
# Roofline


def kernel_intensity(flops: int, moved: int) -> float:
    """flops per moved byte of one kernel's counts; 0 when it moves no bytes."""
    return flops / moved if moved > 0 else 0.0


def layer_intensity(rows: Sequence[Sequence[int]]) -> float:
    """`phase_intensity` of a layer's count rows: summed flops over summed bytes."""
    total = sum(sum(row[1:6]) for row in rows)
    if total <= 0:
        raise ValueError("graph moves no bytes")
    return sum(row[0] for row in rows) / total


def boundedness(intensity: float, dev: DeviceSpec) -> str:
    """memory_bound when an intensity sits at or below the device's ridge."""
    return MEMORY_BOUND if intensity <= dev.ridge_point else COMPUTE_BOUND


def timed_rows(rows: Sequence[Sequence[int]], dev: DeviceSpec) -> list[tuple[int | float, ...]]:
    """Each row's six counts, then its roofline time on the device: the max of
    its compute time and its memory-move time."""
    peak, bandwidth = dev.peak_ops, dev.mem_bandwidth
    return [(*row[:6], max(row[0] / peak, sum(row[1:6]) / bandwidth)) for row in rows]


def graph_time(graph: LayerGraph, dev: DeviceSpec) -> float:
    """Sum of per-kernel roofline times for one layer."""
    return sum(row[6] for row in timed_rows(graph.rows, dev))


def apply_roofline(graph: LayerGraph, dev: DeviceSpec) -> LayerGraph:
    """Copy of the graph with est_time_s populated from the device roofline."""
    return LayerGraph(rows=timed_rows(graph.rows, dev), phase=graph.phase)


def phase_intensity(graph: LayerGraph) -> float:
    """Aggregate arithmetic intensity (total flops / total bytes)."""
    return layer_intensity(graph.rows)


def classify(graph: LayerGraph, dev: DeviceSpec) -> str:
    """memory_bound when aggregate intensity sits at or below the ridge."""
    return boundedness(phase_intensity(graph), dev)


def scaled_device(
    dev: DeviceSpec,
    compute_factor: float = 1.0,
    bandwidth_factor: float = 1.0,
) -> DeviceSpec:
    """Device with peak_ops/mem_bandwidth scaled (factors must be positive)."""
    return replace(
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
) -> float:
    """Ratio of summed roofline times: base device over modified device.

    Raises UserInputError when `check_fits` refuses the request on either device.
    """
    for dev in (base, modified):
        check_fits(cfg, req, dev)
    rows = layer_rows(cfg, req, phase)
    base_s, mod_s = (sum(row[6] for row in timed_rows(rows, d)) for d in (base, modified))
    return base_s / mod_s


# ---------------------------------------------------------------------------
# Global (whole-request) features


class GlobalFeatures(Record):
    """Request-level summary features for one prediction phase."""

    total_ops: NonNegative
    layer_count: NonNegative  # the five counts and lengths are ints
    hidden_dim: NonNegative
    ffn_dim: NonNegative
    prompt_len: NonNegative
    output_len: NonNegative
    weight_memory_bytes: NonNegative
    kv_cache_bytes: NonNegative
    phase: str  # "prefill" or "total"
    prefill_energy_j: float | None = None

    def __post_init__(self) -> None:
        if self.phase not in FEATURE_PHASES:
            raise ValueError(f"unknown feature phase {self.phase!r}")
        if self.phase == "prefill" and self.prefill_energy_j is not None:
            raise ValueError("prefill_energy_j only applies to the total phase")
        if self.prefill_energy_j is not None and not 0 < self.prefill_energy_j < math.inf:
            raise ValueError("prefill_energy_j must be finite and positive when present")


def param_count(cfg: LlmConfig) -> int:
    """All weight-tensor elements: embedding, per-layer blocks, final norm."""
    d, f = cfg.hidden_dim, cfg.ffn_dim
    per_layer = 4 * d * d + 2 * d * f + 4 * d
    return cfg.vocab_size * d + cfg.num_layers * per_layer + 2 * d


def weight_memory_bytes(cfg: LlmConfig) -> int:
    return param_count(cfg) * cfg.weight_bytes


def kv_cache_bytes(cfg: LlmConfig, seq_len: int) -> int:
    """K and V caches across all layers at a given sequence length."""
    return 2 * cfg.num_layers * cfg.hidden_dim * seq_len * cfg.act_bytes


def global_features(cfg: LlmConfig, req: Request, phase: str) -> GlobalFeatures:
    """Aggregate features for the prefill phase or the whole request; decode
    is counted at its mid-sequence position, as `layer_rows` defaults to.
    Both op counts are exact and O(1) from the `_decode_lines` layer line: a
    kernel's flops at t tokens over s positions are t times its flops at s."""
    flops0, _, dflops, _ = _decode_lines(cfg)[1]
    p = req.prompt_len
    prefill_ops = p * (flops0 + p * dflops)
    if phase == "prefill":
        total_ops = prefill_ops * cfg.num_layers
        seq_len = p
    else:
        decode_ops = flops0 + (p + req.output_len // 2) * dflops
        total_ops = (prefill_ops + req.output_len * decode_ops) * cfg.num_layers
        seq_len = p + req.output_len
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
    )


def with_prefill_energy(globals_: GlobalFeatures, energy_j: float) -> GlobalFeatures:
    """The globals with a prefill energy; `GlobalFeatures` refuses prefill-phase ones."""
    return replace(globals_, prefill_energy_j=energy_j)


# ---------------------------------------------------------------------------
# Energy pricing
#
# A kernel's energy is its roofline time times its power: idle + 0.6 *
# (active - idle) when memory-bound, full active power when compute-bound.
# Prefill runs each kernel once per layer; decode runs it once per layer at
# every KV position prompt_len .. prompt_len + output_len - 1, with FLOPs and
# bytes affine in the position.  The intensity, a ratio of two affine
# functions, is monotone, so boundedness flips at most once per request (a
# binary search over the exact float test finds it), and the roofs cross at
# the ridge: on each side the summed time is one arithmetic series over exact
# integer counts.  A request costs O(kernels) at any length; it builds only its
# prefill rows, as the fixed-size `_decode_lines` cache holds each config's
# decode lines.  The `_Pricer` is not cached: keyed on the device, 6e12 and
# 6000000000000 would share one, yet divide a count above 2**53 differently.

MEMORY_BOUND_POWER_BLEND = 0.6


class KernelCost(NamedTuple):
    """One kernel of a request on a device, summed over its phase and all layers."""

    phase: str
    kind: str
    flops: int
    bytes: int
    time_s: float
    energy_j: float
    boundedness: str  # at the phase's first position
    flip_position: int | None  # first decode KV position whose boundedness differs


_HALF_MAX = sys.float_info.max / 2


def check_fits(cfg: LlmConfig, req: Request, dev: DeviceSpec) -> None:
    """UserInputError when weights plus the final K/V cache overflow DRAM, or
    when a bound on the request's FLOP or byte totals, or on its roofline
    time or energy, is past half the largest float: the half spares the
    rounding of the sums the bound stands for, so a request that passes
    prices and featurizes to finite numbers only.

    The bound is O(1), from the cached `_decode_lines` layer line: each
    prefill count is at most prompt_len times the one-token count at position
    prompt_len, and each decode step's at most the count at the last position.
    """
    seq_len = req.prompt_len + req.output_len
    need = weight_memory_bytes(cfg) + kv_cache_bytes(cfg, seq_len)
    if need > dev.dram_capacity:
        raise UserInputError(
            f"{cfg.name} at {seq_len} tokens needs {need} bytes of weights and K/V "
            f"cache, more than the {dev.dram_capacity:.0f} bytes of DRAM on {dev.name}"
        )
    flops0, moved0, dflops, dmoved = _decode_lines(cfg)[1]
    p, o, last = req.prompt_len, req.output_len, seq_len - 1
    flops = cfg.num_layers * (p * (flops0 + p * dflops) + o * (flops0 + last * dflops))
    moved = cfg.num_layers * (p * (moved0 + p * dmoved) + o * (moved0 + last * dmoved))
    if max(flops, moved) <= _HALF_MAX:
        time_s = flops / dev.peak_ops + moved / dev.mem_bandwidth
        if max(time_s, time_s * dev.active_power) <= _HALF_MAX:
            return
    raise UserInputError(
        f"{cfg.name} at prompt_len {p} and output_len {o} on {dev.name} is past what a "
        f"float holds: its FLOP and byte counts, roofline time or energy would overflow")


class _Pricer:
    """Roofline time and power of kernel counts on one device."""

    def __init__(self, dev: DeviceSpec, layers: int) -> None:
        self.dev, self.layers, self.ridge = dev, layers, dev.ridge_point
        self.blend = dev.idle_power + MEMORY_BOUND_POWER_BLEND * (
            dev.active_power - dev.idle_power
        )

    def memory_bound(self, flops: int, moved: int) -> bool:
        """`boundedness`'s test on raw counts."""
        return kernel_intensity(flops, moved) <= self.ridge

    def prefill(self, kind: str, row: Sequence[int]) -> KernelCost:
        flops, moved = row[0], sum(row[1:])
        time_s = max(flops / self.dev.peak_ops, moved / self.dev.mem_bandwidth)
        memory = self.memory_bound(flops, moved)
        power = self.blend if memory else self.dev.active_power
        return KernelCost(
            "prefill", kind, flops * self.layers, moved * self.layers,
            time_s * self.layers, time_s * power * self.layers,
            MEMORY_BOUND if memory else COMPUTE_BOUND, None,
        )

    def decode(self, kind: str, line: tuple[int, int, int, int], lo: int, hi: int) -> KernelCost:
        """The kernel at KV positions lo..hi, from its `_decode_lines` entry."""
        flops0, moved0, dflops, dmoved = line
        first = self.memory_bound(flops0 + lo * dflops, moved0 + lo * dmoved)
        segments = [(lo, hi + 1, first)]
        flip = None
        if self.memory_bound(flops0 + hi * dflops, moved0 + hi * dmoved) != first:
            # The test changes at most once: find the first position it differs.
            below, flip = lo, hi
            while flip - below > 1:
                mid = (below + flip) // 2
                if self.memory_bound(flops0 + mid * dflops, moved0 + mid * dmoved) == first:
                    below = mid
                else:
                    flip = mid
            segments = [(lo, flip, first), (flip, hi + 1, not first)]
        flops = moved = 0
        time_s = energy_j = 0.0
        for start, stop, memory in segments:
            n = stop - start
            position_sum = (start + stop - 1) * n // 2
            seg_flops = n * flops0 + position_sum * dflops
            seg_moved = n * moved0 + position_sum * dmoved
            # A memory-bound kernel's roofline time is its memory time: the
            # two roofs cross at the ridge, up to an ulp at a tie.
            if memory:
                seg_time, power = seg_moved / self.dev.mem_bandwidth, self.blend
            else:
                seg_time, power = seg_flops / self.dev.peak_ops, self.dev.active_power
            flops, moved = flops + seg_flops, moved + seg_moved
            time_s += seg_time
            energy_j += seg_time * power
        return KernelCost(
            "decode", kind, flops * self.layers, moved * self.layers,
            time_s * self.layers, energy_j * self.layers,
            MEMORY_BOUND if first else COMPUTE_BOUND, flip,
        )


@functools.lru_cache(maxsize=64)
def _decode_lines(cfg: LlmConfig) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Each kernel's decode line, its (flops, bytes) at KV position 0 and their
    growth per position, then the layer's summed line."""
    lines = tuple((a[0], sum(a[1:]), b[0] - a[0], sum(b[1:]) - sum(a[1:]))
                  for a, b in zip(_layer_counts(cfg, 1, 0), _layer_counts(cfg, 1, 1)))
    return lines, tuple(map(sum, zip(*lines)))


def decode_intensity(cfg: LlmConfig, position: int) -> float:
    """`layer_intensity(layer_rows(cfg, req, "decode", position))`, exactly:
    the counts are affine in the position with integer coefficients."""
    flops0, moved0, dflops, dmoved = _decode_lines(cfg)[1]
    return (flops0 + position * dflops) / (moved0 + position * dmoved)


def kernel_costs(
    cfg: LlmConfig,
    req: Request,
    dev: DeviceSpec,
) -> tuple[KernelCost, ...]:
    """Every prefill kernel, then every decode kernel, of one request, noise-free.

    Decode covers KV positions prompt_len .. prompt_len + output_len - 1.
    Raises UserInputError when `check_fits` refuses the request.
    """
    check_fits(cfg, req, dev)
    lines = _decode_lines(cfg)[0]
    pricer = _Pricer(dev, cfg.num_layers)
    lo, hi = req.prompt_len, req.prompt_len + req.output_len - 1
    prefill = layer_rows(cfg, req, "prefill")
    return tuple(pricer.prefill(k, row) for k, row in zip(LAYER_KINDS, prefill)) + tuple(
        pricer.decode(k, line, lo, hi) for k, line in zip(LAYER_KINDS, lines)
    )


def phase_totals(
    rows: Sequence[KernelCost],
) -> tuple[tuple[float, float], tuple[float, float]]:
    """((prefill_s, prefill_j), (decode_s, decode_j)) summed over `kernel_costs` rows."""
    prefill, decode = (
        (sum(r.time_s for r in rows if r.phase == phase),
         sum(r.energy_j for r in rows if r.phase == phase))
        for phase in GRAPH_PHASES
    )
    return prefill, decode


def request_energy(
    cfg: LlmConfig, req: Request, dev: DeviceSpec
) -> tuple[float, float]:
    """(prefill joules, decode joules) for one request, noise-free; raises
    UserInputError like `kernel_costs`."""
    (_, prefill_j), (_, decode_j) = phase_totals(kernel_costs(cfg, req, dev))
    return prefill_j, decode_j


# ---------------------------------------------------------------------------
# JSON I/O

def device_from_json(doc: object) -> DeviceSpec:
    try:
        doc = json_object(doc, "device", DeviceSpec._fields)
        return DeviceSpec(**{k: json_name(doc[k], k) if k == "name" else json_number(doc[k], k)
                             for k in DeviceSpec._fields})
    except ValueError as exc:
        raise UserInputError(f"malformed device spec: {exc}") from exc


def load_device_json(path: str | Path) -> DeviceSpec:
    return device_from_json(read_json(path, "device spec"))


def config_from_json(doc: object) -> LlmConfig:
    try:
        doc = json_object(doc, "config", [k for k in LlmConfig._fields
                                          if k not in LlmConfig._defaults])
        return LlmConfig(**{k: json_name(doc[k], k) if k == "name" else json_int(doc[k], k)
                            for k in LlmConfig._fields if k in doc})
    except ValueError as exc:
        raise UserInputError(f"malformed llm config: {exc}") from exc


def load_config_json(path: str | Path) -> LlmConfig:
    return config_from_json(read_json(path, "llm config"))
