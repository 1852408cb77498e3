"""Transformer layer graphs, FLOP/byte accounting, roofline classification."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from co2meter import workload as wl
from co2meter.errors import replace
from oracle_reference import arithmetic_intensity, roofline_time

Q15 = wl.LlmConfig(
    name="q15",
    num_layers=24,
    hidden_dim=1024,
    num_heads=16,
    head_dim=64,
    ffn_dim=2816,
    vocab_size=151936,
    weight_bytes=1,
    act_bytes=2,
)

RK3588 = wl.DeviceSpec(
    name="rk3588",
    peak_ops=6e12,
    mem_bandwidth=51.2e9,
    idle_power=0.8,
    active_power=6.0,
    dram_capacity=8 << 30,
)


def layer_flops_closed_form(cfg: wl.LlmConfig, t: int, s: int) -> int:
    """Whole-layer FLOPs, summed kernel by kernel by hand.

    matmuls: qkv 6Td^2, scores 2TSd, values 2TSd, out 2Td^2, ffn 4Tdf;
    elementwise: softmax 5HTS, two norms 14Td, two residuals 4Td, act 4Tf.
    """
    d, h, f = cfg.hidden_dim, cfg.num_heads, cfg.ffn_dim
    return t * (8 * d * d + 4 * s * d + 5 * h * s + 4 * d * f + 18 * d + 4 * f)


# ---------------------------------------------------------------------------
# Config and device validation


def test_config_validates_head_factorization():
    with pytest.raises(ValueError):
        replace(Q15, num_heads=10)


def test_config_validates_byte_widths():
    with pytest.raises(ValueError):
        replace(Q15, weight_bytes=3)
    with pytest.raises(ValueError):
        replace(Q15, act_bytes=0)


def test_device_validates_powers():
    with pytest.raises(ValueError):
        replace(RK3588, active_power=0.5)  # below idle
    with pytest.raises(ValueError):
        replace(RK3588, peak_ops=0.0)


def test_ridge_point():
    assert RK3588.ridge_point == pytest.approx(6e12 / 51.2e9, rel=1e-12)


def test_request_validation():
    with pytest.raises(ValueError):
        wl.Request(0, 8)
    with pytest.raises(ValueError):
        wl.Request(8, 0)


# ---------------------------------------------------------------------------
# Graph structure


def test_layer_graph_shape():
    graph = wl.build_layer_graph(Q15, wl.Request(100, 64), "prefill")
    assert len(graph.nodes) == 12
    kinds = [n.kind for n in graph.nodes]
    for kind in wl.KERNEL_KINDS:
        assert kind in kinds
    assert kinds.count("norm") == 2
    assert kinds.count("residual") == 2
    # every edge points forward, so the canonical node order is topological
    for a, b in graph.edges:
        assert a < b


def test_layer_graph_rejects_cycles():
    graph = wl.build_layer_graph(Q15, wl.Request(4, 4), "prefill")
    with pytest.raises(ValueError):
        wl.LayerGraph(
            nodes=graph.nodes,
            edges=graph.edges + ((11, 0),),
            phase="prefill",
        )


def test_layer_graph_rejects_self_loops_and_disconnection():
    graph = wl.build_layer_graph(Q15, wl.Request(4, 4), "prefill")
    with pytest.raises(ValueError):
        wl.LayerGraph(nodes=graph.nodes, edges=graph.edges + ((3, 3),), phase="prefill")
    with pytest.raises(ValueError):
        wl.LayerGraph(nodes=graph.nodes, edges=((0, 1), (1, 2)), phase="prefill")
    with pytest.raises(ValueError, match="not the decoder-layer topology"):
        wl.LayerGraph(nodes=graph.nodes[:5], edges=graph.edges, phase="prefill")


def test_layer_graph_rejects_out_of_range_endpoints():
    graph = wl.build_layer_graph(Q15, wl.Request(4, 4), "prefill")
    # with the first norm moved to node 11, the edge (-1, qkv) would reach it
    # through Python's negative indexing and map onto the layer's first edge
    nodes, edges = _relabel(graph.nodes, graph.edges, list(range(1, 12)) + [0])
    assert edges[0] == (11, 0)
    for edge in ((-1, 0), (11, 12)):
        with pytest.raises(ValueError, match="not the decoder-layer topology"):
            wl.LayerGraph(nodes=nodes, edges=(edge,) + edges[1:], phase="prefill")


def test_layer_graph_refuses_a_row_every_field_check_passes():
    """A float subclass passes every field check, yet no plain row holds it,
    so the row is refused rather than stored."""
    rows = [list(row) for row in wl.build_layer_graph(Q15, wl.Request(4, 4), "prefill").rows]
    rows[3][6] = np.float64(rows[3][6])
    with pytest.raises(ValueError, match=r"^row 3 \(softmax\) .* is not a row of counts and a time"):
        wl.LayerGraph(rows=rows, phase="prefill")


_HUGE = 10**400  # an integer no float can hold


def _set_row(i, j, value):
    def mutate(rows):
        rows[i][j] = value
    return mutate


# Each malformed value of a `LayerGraph(rows=...)` table, with what the error names.
_BAD_ROWS = {
    **{f"node flops-{value}": (_set_row(2, 0, value),
                               f"row 2 (attn_score) flops {value} is not an integer")
       for value in (float("nan"), float("inf"))},
    **{f"node est_time_s-{value}": (_set_row(5, 6, value),
                                    f"row 5 (out_proj) est_time_s {value} is not a finite")
       for value in (float("nan"), float("inf"))},
    "wrong row count": (lambda rows: rows.pop(), "11 rows, expected one per layer kernel (12)"),
    "wrong row width": (lambda rows: rows[0].pop(), "row 0 (norm): 6 values, expected 7"),
    # counts that int() would truncate
    "fractional kernel count": (_set_row(3, 0, 1.5),
                                "row 3 (softmax) flops 1.5 is not an integer"),
    "bool kernel count": (_set_row(1, 1, True),
                          "row 1 (qkv_proj) weight_bytes_loaded True is not an integer"),
    "negative kernel count": (_set_row(2, 4, -1),
                              "row 2 (attn_score) kv_bytes_loaded -1 is negative"),
    "negative est_time_s": (_set_row(11, 6, -1e-9),
                            "row 11 (residual) est_time_s -1e-09 is negative"),
    # integers no float can hold, which would overflow in featurization
    "kernel count beyond float": (_set_row(2, 0, _HUGE),
                                  f"row 2 (attn_score) flops {_HUGE} is not a finite number"),
    "est_time_s beyond float": (_set_row(5, 6, _HUGE),
                                f"row 5 (out_proj) est_time_s {_HUGE} is not a finite number"),
    "bool est_time_s": (_set_row(4, 6, False), "row 4 (attn_value) est_time_s False"),
}


@pytest.mark.parametrize("mutate, named", list(_BAD_ROWS.values()), ids=list(_BAD_ROWS))
def test_layer_graph_rows_refuse_each_bad_value(mutate, named):
    rows = [list(row) for row in wl.timed_rows(
        wl.layer_rows(Q15, wl.Request(96, 64), "decode"), RK3588)]
    mutate(rows)
    with pytest.raises(ValueError) as info:
        wl.LayerGraph(rows=rows, phase="decode")
    assert named in str(info.value)


def test_both_constructors_refuse_a_count_that_is_not_an_integer():
    """The node path checks the canonical rows as the rows path does, also
    when the bad node comes relabelled."""
    graph = wl.build_layer_graph(Q15, wl.Request(4, 4), "prefill")
    nodes = (replace(graph.nodes[0], flops=1.5), *graph.nodes[1:])
    rows = [list(row) for row in graph.rows]
    rows[0][0] = 1.5
    text = r"^row 0 \(norm\) flops 1\.5 is not an integer"
    with pytest.raises(ValueError, match=text):
        wl.LayerGraph(rows=rows, phase="prefill")
    with pytest.raises(ValueError, match=text):
        wl.LayerGraph(nodes, graph.edges, "prefill")
    with pytest.raises(ValueError, match=text):
        wl.LayerGraph(*_relabel(nodes, graph.edges, list(range(1, 12)) + [0]), phase="prefill")


def _relabeled(graph, order):
    """The same graph with node order[i] moved to position i."""
    return wl.LayerGraph(*_relabel(graph.nodes, graph.edges, order), phase=graph.phase)


def _relabel(nodes, edges, order):
    """Nodes and edges with node order[i] moved to position i; nodes past the
    end of order keep theirs."""
    order = list(order) + list(range(len(order), len(nodes)))
    position = {v: i for i, v in enumerate(order)}
    return (
        tuple(nodes[v] for v in order),
        tuple((position[a], position[b]) for a, b in edges),
    )


_layer_graphs = st.builds(
    lambda phase, prompt, output: wl.build_layer_graph(Q15, wl.Request(prompt, output), phase),
    st.sampled_from(wl.GRAPH_PHASES), st.integers(1, 4096), st.integers(1, 512),
)


@given(_layer_graphs, st.permutations(range(12)))
@settings(max_examples=100, deadline=None)
def test_any_relabelling_canonicalizes_back(graph, order):
    checked = []
    layer_slots = wl._layer_slots

    def counting(nodes, edges):
        checked.append(len(nodes))
        return layer_slots(nodes, edges)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wl, "_layer_slots", counting)
        relabelled = _relabeled(graph, order)
        # only a graph outside canonical order is matched, and only once
        assert checked == ([] if order == list(range(12)) else [12])
        checked.clear()
        assert wl.LayerGraph(graph.nodes, graph.edges, graph.phase) == graph
        assert checked == []
    assert relabelled == graph
    assert relabelled.edges == wl._LAYER_EDGES
    assert wl.in_neighbor_lists(relabelled) == wl.LAYER_PREDS


# Each mutation returns (nodes, edges) of a graph that is not the decoder layer.


def _move_edge(graph, data):
    edges = list(graph.edges)
    i = data.draw(st.integers(0, len(edges) - 1))
    moved = data.draw(st.tuples(st.integers(0, 11), st.integers(0, 11)))
    assume(moved != edges[i])
    edges[i] = moved
    return graph.nodes, tuple(edges)


def _swap_kinds(graph, data):
    a, b = data.draw(st.lists(st.integers(0, 11), min_size=2, max_size=2, unique=True))
    nodes = list(graph.nodes)
    assume(nodes[a].kind != nodes[b].kind)
    nodes[a] = replace(graph.nodes[a], kind=graph.nodes[b].kind)
    nodes[b] = replace(graph.nodes[b], kind=graph.nodes[a].kind)
    return tuple(nodes), graph.edges


def _duplicate_edge(graph, data):
    return graph.nodes, graph.edges + (data.draw(st.sampled_from(graph.edges)),)


def _add_node(graph, data):
    """A copy of one node, joined to the graph by one edge."""
    copied, other = data.draw(st.tuples(st.integers(0, 11), st.integers(0, 11)))
    edge = data.draw(st.sampled_from([(12, other), (other, 12)]))
    return graph.nodes + (graph.nodes[copied],), graph.edges + (edge,)


@given(
    _layer_graphs,
    st.sampled_from([_move_edge, _swap_kinds, _duplicate_edge, _add_node]),
    st.permutations(range(12)),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_other_layer_topologies_are_refused(graph, mutate, order, data):
    nodes, edges = mutate(graph, data)
    for candidate in ((nodes, edges), _relabel(nodes, edges, order)):
        with pytest.raises(ValueError, match="not the decoder-layer topology"):
            wl.LayerGraph(*candidate, phase=graph.phase)


def test_in_neighbor_lists_match_edges():
    graph = wl.build_layer_graph(Q15, wl.Request(4, 4), "decode")
    preds = wl.in_neighbor_lists(graph)
    for a, b in graph.edges:
        assert a in preds[b]
    assert sum(len(p) for p in preds) == len(graph.edges)


# ---------------------------------------------------------------------------
# FLOP accounting vs a closed-form whole-layer oracle


@pytest.mark.parametrize("seed", range(5))
def test_prefill_flops_match_closed_form(seed):
    rng = np.random.default_rng(seed)
    head_dim = int(rng.choice([8, 16, 32]))
    heads = int(rng.integers(2, 9))
    cfg = wl.LlmConfig(
        name=f"rand{seed}",
        num_layers=int(rng.integers(2, 9)),
        hidden_dim=heads * head_dim,
        num_heads=heads,
        head_dim=head_dim,
        ffn_dim=int(rng.integers(2, 5)) * heads * head_dim,
        vocab_size=1000,
        weight_bytes=int(rng.choice([1, 2])),
        act_bytes=2,
    )
    prompt = int(rng.integers(2, 65))
    graph = wl.build_layer_graph(cfg, wl.Request(prompt, 4), "prefill")
    assert wl.graph_flops(graph) == layer_flops_closed_form(cfg, prompt, prompt)


@pytest.mark.parametrize("seed", range(5))
def test_decode_flops_match_closed_form(seed):
    rng = np.random.default_rng(100 + seed)
    head_dim = int(rng.choice([8, 16, 32]))
    heads = int(rng.integers(2, 9))
    cfg = wl.LlmConfig(
        name=f"rand{seed}",
        num_layers=2,
        hidden_dim=heads * head_dim,
        num_heads=heads,
        head_dim=head_dim,
        ffn_dim=4 * heads * head_dim,
        vocab_size=1000,
    )
    prompt = int(rng.integers(2, 65))
    position = prompt + int(rng.integers(0, 32))
    graph = wl.build_layer_graph(
        cfg, wl.Request(prompt, 64), "decode", position=position
    )
    assert wl.graph_flops(graph) == layer_flops_closed_form(cfg, 1, position)


def test_decode_defaults_to_mid_sequence_position():
    req = wl.Request(100, 64)
    default = wl.build_layer_graph(Q15, req, "decode")
    explicit = wl.build_layer_graph(Q15, req, "decode", position=100 + 32)
    assert default == explicit


def test_flops_scale_linearly_with_prompt():
    f1 = wl.graph_flops(wl.build_layer_graph(Q15, wl.Request(50, 4), "prefill"))
    f2 = wl.graph_flops(wl.build_layer_graph(Q15, wl.Request(100, 4), "prefill"))
    # attention grows quadratically, so doubling T more than doubles FLOPs
    assert f2 > 2 * f1
    # doubling T at fixed S=50 is exactly linear
    assert 2 * f1 == layer_flops_closed_form(Q15, 100, 50)


# ---------------------------------------------------------------------------
# Byte accounting spot checks (hand-computed tiny config)


def test_byte_accounting_tiny_config():
    cfg = wl.LlmConfig(
        name="tiny",
        num_layers=1,
        hidden_dim=4,
        num_heads=2,
        head_dim=2,
        ffn_dim=8,
        vocab_size=16,
        weight_bytes=1,
        act_bytes=2,
    )
    t = s = 3
    graph = wl.build_layer_graph(cfg, wl.Request(t, 1), "prefill")
    by_kind = {}
    for node in graph.nodes:
        by_kind.setdefault(node.kind, node)

    qkv = by_kind["qkv_proj"]
    assert qkv.flops == 2 * t * 4 * 12  # 2*T*d*(3d)
    assert qkv.weight_bytes_loaded == 3 * 4 * 4 * 1
    assert qkv.act_bytes_loaded == t * 4 * 2
    assert qkv.act_bytes_stored == t * 4 * 2  # Q written as activations
    assert qkv.kv_bytes_stored == 2 * t * 4 * 2  # K and V appended to cache

    score = by_kind["attn_score"]
    assert score.flops == 2 * t * s * 4
    assert score.act_bytes_loaded == t * 4 * 2  # Q
    assert score.kv_bytes_loaded == s * 4 * 2  # K
    assert score.act_bytes_stored == 2 * t * s * 2  # H*T*S scores

    ffn_up = by_kind["ffn_up"]
    assert ffn_up.weight_bytes_loaded == 4 * 8 * 1
    assert ffn_up.flops == 2 * t * 4 * 8

    norm = by_kind["norm"]
    assert norm.flops == 7 * t * 4
    assert norm.weight_bytes_loaded == 2 * 4 * 1  # scale and shift vectors

    residual = by_kind["residual"]
    assert residual.flops == 2 * t * 4
    assert residual.act_bytes_loaded == 2 * t * 4 * 2  # two input streams


def test_kv_cache_bytes_grow_with_position():
    req = wl.Request(64, 64)
    early = wl.build_layer_graph(Q15, req, "decode", position=64)
    late = wl.build_layer_graph(Q15, req, "decode", position=120)
    kv_early = sum(n.kv_bytes_loaded for n in early.nodes)
    kv_late = sum(n.kv_bytes_loaded for n in late.nodes)
    assert kv_late > kv_early
    # each matmul over the cache reads position-many entries
    assert kv_late / kv_early == pytest.approx(120 / 64, rel=1e-12)


def test_kv_cache_bytes_formula():
    assert wl.kv_cache_bytes(Q15, 164) == 2 * 24 * 1024 * 164 * 2


def test_param_count_and_weight_memory():
    # embeddings + per-layer (qkv/out + ffn pair + norms) + final norm
    d, f, layers, vocab = 1024, 2816, 24, 151936
    expected = vocab * d + layers * (4 * d * d + 2 * d * f + 4 * d) + 2 * d
    assert wl.param_count(Q15) == expected
    assert wl.weight_memory_bytes(Q15) == expected * Q15.weight_bytes


# ---------------------------------------------------------------------------
# Roofline


def test_roofline_time_is_max_form():
    node = wl.KernelNode(
        kind="norm",
        flops=1000,
        weight_bytes_loaded=0,
        act_bytes_loaded=400,
        act_bytes_stored=100,
        kv_bytes_loaded=0,
        kv_bytes_stored=0,
    )
    t = roofline_time(node, RK3588)
    assert t == max(1000 / 6e12, 500 / 51.2e9)
    assert wl.timed_rows([(1000, 0, 400, 100, 0, 0)], RK3588) == [(1000, 0, 400, 100, 0, 0, t)]


def test_classify_tie_is_memory_bound():
    dev = replace(RK3588, peak_ops=1e12, mem_bandwidth=1e9)
    node = wl.KernelNode(
        kind="norm",
        flops=1000_000,
        weight_bytes_loaded=0,
        act_bytes_loaded=1000,
        act_bytes_stored=0,
        kv_bytes_loaded=0,
        kv_bytes_stored=0,
    )
    assert arithmetic_intensity(node) == dev.ridge_point
    assert wl.boundedness(arithmetic_intensity(node), dev) == "memory_bound"


def test_decode_is_memory_bound_prefill_intensity_grows():
    req = wl.Request(100, 64)
    decode = wl.build_layer_graph(Q15, req, "decode")
    prefill = wl.build_layer_graph(Q15, req, "prefill")
    assert wl.classify(decode, RK3588) == "memory_bound"
    assert wl.phase_intensity(prefill) > 10 * wl.phase_intensity(decode)


def test_apply_roofline_populates_times():
    graph = wl.build_layer_graph(Q15, wl.Request(32, 8), "prefill")
    timed = wl.apply_roofline(graph, RK3588)
    assert all(n.est_time_s == 0.0 for n in graph.nodes)
    assert all(n.est_time_s > 0.0 for n in timed.nodes)
    assert wl.graph_time(timed, RK3588) == pytest.approx(
        sum(n.est_time_s for n in timed.nodes), rel=1e-12
    )


def test_scaled_device():
    dev = wl.scaled_device(RK3588, compute_factor=8.0, bandwidth_factor=4.0)
    assert dev.peak_ops == 8 * RK3588.peak_ops
    assert dev.mem_bandwidth == 4 * RK3588.mem_bandwidth
    with pytest.raises(ValueError):
        wl.scaled_device(RK3588, compute_factor=0.0)


def test_whatif_identity_is_one():
    speedup = wl.whatif_speedup(
        Q15, wl.Request(64, 8), "prefill", RK3588, RK3588
    )
    assert speedup == pytest.approx(1.0, rel=1e-12)


@given(
    compute=st.floats(1.0, 16.0),
    bandwidth=st.floats(1.0, 16.0),
    prompt=st.integers(2, 256),
)
@settings(max_examples=40, deadline=None)
def test_whatif_speedup_bounded_by_factors(compute, bandwidth, prompt):
    modified = wl.scaled_device(RK3588, compute, bandwidth)
    speedup = wl.whatif_speedup(
        Q15, wl.Request(prompt, 1), "prefill", RK3588, modified
    )
    assert 1.0 - 1e-12 <= speedup <= max(compute, bandwidth) + 1e-12


# ---------------------------------------------------------------------------
# Global features


def test_global_features_total_ops():
    req = wl.Request(100, 64)
    prefill_layer = wl.graph_flops(wl.build_layer_graph(Q15, req, "prefill"))
    decode_layer = wl.graph_flops(wl.build_layer_graph(Q15, req, "decode"))
    gf = wl.global_features(Q15, req, "total")
    assert gf.total_ops == (prefill_layer + 64 * decode_layer) * Q15.num_layers
    assert gf.kv_cache_bytes == wl.kv_cache_bytes(Q15, 164)
    pf = wl.global_features(Q15, req, "prefill")
    assert pf.total_ops == prefill_layer * Q15.num_layers
    assert pf.kv_cache_bytes == wl.kv_cache_bytes(Q15, 100)


def test_global_features_prefill_energy_slot():
    gf = wl.global_features(Q15, wl.Request(10, 5), "total")
    assert gf.prefill_energy_j is None
    filled = wl.with_prefill_energy(gf, 0.25)
    assert filled.prefill_energy_j == 0.25
    with pytest.raises(ValueError):
        replace(
            wl.global_features(Q15, wl.Request(10, 5), "prefill"),
            prefill_energy_j=1.0,
        )


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), float("-inf")])
def test_counts_and_features_must_be_finite_and_non_negative(bad):
    graph = wl.build_layer_graph(Q15, wl.Request(10, 5), "prefill")
    for field in ("flops", "kv_bytes_loaded", "est_time_s"):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            replace(graph.nodes[1], **{field: bad})
    gf = wl.global_features(Q15, wl.Request(10, 5), "total")
    for field in ("total_ops", "weight_memory_bytes", "kv_cache_bytes"):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            replace(gf, **{field: bad})
    with pytest.raises(ValueError, match="prefill_energy_j must be finite"):
        wl.with_prefill_energy(gf, bad)


# ---------------------------------------------------------------------------
# JSON I/O


_POSITIVE = st.one_of(st.floats(0.0, exclude_min=True, allow_infinity=False),
                     st.integers(1, 2**64))


@st.composite
def valid_devices(draw):
    idle, active = sorted(draw(st.lists(_POSITIVE, min_size=2, max_size=2)))
    return wl.DeviceSpec(draw(st.text(min_size=1)), draw(_POSITIVE), draw(_POSITIVE),
                         idle, active, draw(_POSITIVE))


@st.composite
def valid_configs(draw):
    heads, head_dim = draw(st.integers(1, 2**20)), draw(st.integers(1, 2**20))
    sizes, widths = st.integers(1, 2**40), st.sampled_from((1, 2, 4))
    return wl.LlmConfig(draw(st.text(min_size=1)), draw(sizes), heads * head_dim, heads,
                        head_dim, draw(sizes), draw(sizes), draw(widths), draw(widths))


@given(valid_devices())
@settings(max_examples=100, deadline=None)
def test_device_json_round_trip(dev):
    doc = json.loads(json.dumps({f: getattr(dev, f) for f in dev._fields}, allow_nan=False))
    assert wl.device_from_json(doc) == dev


@given(valid_configs())
@settings(max_examples=100, deadline=None)
def test_config_json_round_trip(cfg):
    doc = json.loads(json.dumps({f: getattr(cfg, f) for f in cfg._fields}))
    assert wl.config_from_json(doc) == cfg


def test_load_device_json_malformed(tmp_path):
    path = tmp_path / "dev.json"
    path.write_text('{"name": "x"}')
    from co2meter.errors import UserInputError

    with pytest.raises(UserInputError):
        wl.load_device_json(path)
