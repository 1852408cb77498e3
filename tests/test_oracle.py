"""Oracle cost table: equal to the per-position graph loop, monotone, DRAM-checked."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from co2meter import assets, cli
from co2meter import workload as wl
from co2meter.errors import UserInputError
from co2meter.predictor import featurize, kernel_costs, make_sample, phase_costs
from co2meter.workload import (
    COMPUTE_BOUND,
    MEMORY_BOUND,
    DeviceSpec,
    LlmConfig,
    Request,
    build_layer_graph,
    classify,
    classify_node,
    global_features,
    graph_flops,
    kv_cache_bytes,
    phase_intensity,
    weight_memory_bytes,
)
from oracle_reference import reference_costs

REL = 1e-12
_SCORE = 2  # index of attn_score in a layer graph
_VALUE = 4  # attn_value
_FFN = (8, 10)  # ffn_up, ffn_down (ffn_act's intensity is constant)
_CONFIGS = ("qwen15-05b", "tinyllama-11b", "internlm2-18b")
_DEVICES = ("rk3568", "rk3588", "orin_nx", "agx_orin")


@st.composite
def configs(draw):
    heads = draw(st.integers(1, 8))
    head_dim = draw(st.integers(1, 32))
    return LlmConfig(
        name="random",
        num_layers=draw(st.integers(1, 6)),
        hidden_dim=heads * head_dim,
        num_heads=heads,
        head_dim=head_dim,
        ffn_dim=draw(st.integers(1, 256)),
        vocab_size=draw(st.integers(1, 1000)),
        weight_bytes=draw(st.sampled_from((1, 2, 4))),
        act_bytes=draw(st.sampled_from((1, 2, 4))),
    )


requests = st.builds(Request, st.integers(1, 96), st.integers(1, 96))


@st.composite
def devices(draw, peak_ops=None, mem_bandwidth=None):
    idle = draw(st.floats(0.1, 10.0))
    return DeviceSpec(
        name="random",
        peak_ops=peak_ops or draw(st.floats(1e6, 1e15)),
        mem_bandwidth=mem_bandwidth or draw(st.floats(1e6, 1e13)),
        idle_power=idle,
        active_power=idle + draw(st.floats(0.0, 20.0)),
        dram_capacity=1e18,
    )


def assert_matches_reference(cfg, req, dev):
    table = phase_costs(cfg, req, dev)
    for got, want in zip(table, reference_costs(cfg, req, dev)):
        assert got == pytest.approx(want, rel=REL)  # (seconds, joules)


@settings(max_examples=150, deadline=None)
@given(configs(), requests, devices())
def test_table_equals_per_position_graph_loop(cfg, req, dev):
    assert_matches_reference(cfg, req, dev)


@settings(max_examples=100, deadline=None)
@given(configs(), st.integers(1, 32), st.integers(8, 96), st.data())
def test_table_equals_loop_when_attn_score_flips_boundedness(cfg, prompt, output, data):
    """The ridge sits exactly on attn_score's intensity at one decode position,
    so the kernel is memory-bound up to it and compute-bound after it."""
    req = Request(prompt, output)
    last = prompt + output - 1
    first, flip, final = (
        build_layer_graph(cfg, req, "decode", position=p).nodes[_SCORE]
        for p in (prompt, data.draw(st.integers(prompt, last - 1)), last)
    )
    bandwidth = 2.0 ** data.draw(st.integers(20, 43))  # keeps the ridge exact
    dev = data.draw(devices(flip.arithmetic_intensity * bandwidth, bandwidth))
    assert dev.ridge_point == flip.arithmetic_intensity
    assume(classify_node(final, dev) == COMPUTE_BOUND)
    assert classify_node(first, dev) == MEMORY_BOUND
    assert_matches_reference(cfg, req, dev)


def decode_boundedness(cfg, req, dev, kernel):
    """Per-position classes of one decode kernel, from freshly built graphs."""
    return [
        classify_node(build_layer_graph(cfg, req, "decode", position=p).nodes[kernel], dev)
        for p in range(req.prompt_len, req.prompt_len + req.output_len)
    ]


@settings(max_examples=8, deadline=None)
@given(configs(), st.integers(1, 2048), st.integers(1024, 4096), devices())
def test_table_equals_loop_on_long_requests(cfg, prompt, output, dev):
    assert_matches_reference(cfg, Request(prompt, output), dev)


@settings(max_examples=150, deadline=None)
@given(configs(), st.integers(1, 32), st.integers(8, 96),
       st.sampled_from((_SCORE, _VALUE)), st.integers(-3, 3), st.data())
def test_attention_flip_position_near_the_ridge(cfg, prompt, output, kernel, ulps, data):
    """The ridge sits within a few ulps of an attention kernel's intensity at
    one decode position: the table reports where the kernel's class flips and
    prices both sides, even where `max(flops / peak, bytes / bandwidth)` takes
    the roof the class does not imply."""
    req = Request(prompt, output)
    at = data.draw(st.integers(prompt, prompt + output - 2))
    ridge = build_layer_graph(cfg, req, "decode", position=at).nodes[kernel].arithmetic_intensity
    for _ in range(abs(ulps)):
        ridge = math.nextafter(ridge, math.inf if ulps > 0 else 0.0)
    bandwidth = data.draw(st.one_of(st.floats(1e6, 1e13), st.integers(20, 43).map(2.0.__pow__)))
    dev = data.draw(devices(ridge * bandwidth, bandwidth))
    classes = decode_boundedness(cfg, req, dev, kernel)
    row = kernel_costs(cfg, req, dev)[12 + kernel]
    assert row.boundedness == classes[0]
    flips = [prompt + i for i in range(1, output) if classes[i] != classes[0]]
    assert row.flip_position == (flips[0] if flips else None)
    assert_matches_reference(cfg, req, dev)


@settings(max_examples=100, deadline=None)
@given(configs(), st.integers(2, 64), st.integers(1, 64), st.sampled_from(_FFN),
       st.floats(0.0, 1.0), st.data())
def test_ffn_roof_flips_between_prefill_and_decode(cfg, prompt, output, kernel, share, data):
    """A ridge between an FFN kernel's decode and prefill intensities makes it
    compute-bound in prefill and memory-bound at every decode position."""
    req = Request(prompt, output)
    low = build_layer_graph(cfg, req, "decode").nodes[kernel].arithmetic_intensity
    high = build_layer_graph(cfg, req, "prefill").nodes[kernel].arithmetic_intensity
    ridge = low + share * (high - low)
    assume(low < ridge < high)
    bandwidth = data.draw(st.floats(1e6, 1e13))
    dev = data.draw(devices(ridge * bandwidth, bandwidth))
    assume(low <= dev.ridge_point < high)
    rows = kernel_costs(cfg, req, dev)
    assert rows[kernel].boundedness == COMPUTE_BOUND
    assert rows[12 + kernel].boundedness == MEMORY_BOUND
    assert rows[12 + kernel].flip_position is None
    assert set(decode_boundedness(cfg, req, dev, kernel)) == {MEMORY_BOUND}
    assert_matches_reference(cfg, req, dev)


@settings(max_examples=50, deadline=None)
@given(configs(), requests, devices())
def test_kernel_rows_sum_to_phase_totals_and_count_every_position(cfg, req, dev):
    rows = kernel_costs(cfg, req, dev)
    assert [(r.phase, r.kind) for r in rows] == [
        (phase, node.kind)
        for phase in ("prefill", "decode")
        for node in build_layer_graph(cfg, req, phase).nodes
    ]
    for phase, (time_s, energy_j) in zip(("prefill", "decode"), phase_costs(cfg, req, dev)):
        phase_rows = [r for r in rows if r.phase == phase]
        assert sum(r.time_s for r in phase_rows) == pytest.approx(time_s, rel=REL)
        assert sum(r.energy_j for r in phase_rows) == pytest.approx(energy_j, rel=REL)
    decode_graphs = [
        build_layer_graph(cfg, req, "decode", position=p)
        for p in range(req.prompt_len, req.prompt_len + req.output_len)
    ]
    for i, row in enumerate(rows[12:]):
        assert row.flops == cfg.num_layers * sum(g.nodes[i].flops for g in decode_graphs)
        assert row.bytes == cfg.num_layers * sum(g.nodes[i].total_bytes for g in decode_graphs)


def _cli_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("config", _CONFIGS)
def test_estimate_roofline_and_globals_equal_the_graph_builder_path(config):
    cfg = assets.load_llm_config(config)
    for dev_name, (prompt, output) in zip(_DEVICES, ((1, 1), (37, 5), (300, 200), (96, 1001))):
        dev = assets.load_device(dev_name)
        req = Request(prompt, output)
        prefill = build_layer_graph(cfg, req, "prefill")
        mid = build_layer_graph(cfg, req, "decode")
        args = ["--config", config, "--device", dev_name,
                "--prompt-len", str(prompt), "--output-len", str(output)]

        est = _cli_json(["estimate", *args])
        assert est["prefill"]["intensity"] == phase_intensity(prefill)
        assert est["prefill"]["boundedness"] == classify(prefill, dev)
        assert est["decode"]["intensity_mid"] == phase_intensity(mid)
        assert est["decode"]["boundedness_mid"] == classify(mid, dev)

        kernels = [
            {"phase": graph.phase, "kind": node.kind,
             "intensity": node.arithmetic_intensity,
             "perf": min(dev.peak_ops, dev.mem_bandwidth * node.arithmetic_intensity),
             "boundedness": classify_node(node, dev)}
            for graph in (prefill, mid) for node in graph.nodes
        ]
        assert _cli_json(["roofline", *args])["kernels"] == kernels

        prefill_ops = graph_flops(prefill) * cfg.num_layers
        total_ops = (graph_flops(prefill) + output * graph_flops(mid)) * cfg.num_layers
        assert global_features(cfg, req, "prefill").total_ops == float(prefill_ops)
        assert global_features(cfg, req, "total").total_ops == float(total_ops)


def test_estimate_and_make_sample_build_three_layer_graphs(monkeypatch):
    built = []
    build = wl.build_layer_graph
    monkeypatch.setattr(
        wl, "build_layer_graph", lambda *args, **kw: built.append(args[2]) or build(*args, **kw)
    )
    _cli_json(["estimate", "--prompt-len", "100", "--output-len", "64"])
    assert built == ["prefill", "decode", "decode"]
    built.clear()
    cfg, dev = assets.load_llm_config("tinyllama-11b"), assets.load_device("rk3588")
    make_sample(cfg, Request(96, 64), dev, np.random.default_rng(0), 0.05)
    assert built == ["prefill", "decode", "decode"]


@settings(max_examples=100, deadline=None)
@given(configs(), requests, devices())
def test_decode_energy_strictly_increases_with_output_len(cfg, req, dev):
    longer = Request(req.prompt_len, req.output_len + 1)
    (_, (_, decode_j)), (_, (_, longer_j)) = (
        phase_costs(cfg, r, dev) for r in (req, longer)
    )
    assert longer_j > decode_j


def test_bundled_configs_and_devices_match_reference():
    for name in ("qwen15-05b", "tinyllama-11b", "internlm2-18b"):
        cfg = assets.load_llm_config(name)
        for dev_name in ("rk3568", "rk3588", "orin_nx", "agx_orin"):
            assert_matches_reference(cfg, Request(300, 200), assets.load_device(dev_name))


def test_requests_beyond_dram_are_rejected():
    cfg = assets.load_llm_config("internlm2-18b")
    dev = assets.load_device("rk3568")
    fits = (dev.dram_capacity - weight_memory_bytes(cfg)) // kv_cache_bytes(cfg, 1)
    phase_costs(cfg, Request(1, int(fits) - 1), dev)
    too_long = Request(1, int(fits))
    for fn in (phase_costs, featurize):
        with pytest.raises(UserInputError, match="DRAM"):
            fn(cfg, too_long, dev)
    with pytest.raises(UserInputError):
        make_sample(cfg, too_long, dev, np.random.default_rng(0), 0.0)
