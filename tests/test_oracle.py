"""Oracle cost table: equal to the per-position graph loop, monotone, DRAM-checked."""

import contextlib
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from co2meter import assets, cli
from co2meter import workload as wl
from co2meter.errors import UserInputError
from co2meter.predictor import featurize, make_sample
from co2meter.workload import (
    COMPUTE_BOUND,
    MEMORY_BOUND,
    DeviceSpec,
    KernelCost,
    LlmConfig,
    Request,
    boundedness,
    build_layer_graph,
    classify,
    global_features,
    graph_flops,
    graph_time,
    kernel_costs,
    kv_cache_bytes,
    phase_intensity,
    phase_totals,
    request_energy,
    scaled_device,
    weight_memory_bytes,
    whatif_speedup,
)
from oracle_reference import (
    arithmetic_intensity,
    kernel_power,
    reference_costs,
    roofline_time,
    total_bytes,
)

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
    """kernel_costs, priced from the config's cached decode lines, against the
    per-position reference."""
    kernel_costs(cfg, req, dev)  # builds the config's cache entry, or reuses it
    before = wl._decode_lines.cache_info()
    table = phase_totals(kernel_costs(cfg, req, dev))
    after = wl._decode_lines.cache_info()
    # one lookup in check_fits, one for the kernel lines
    assert after.misses == before.misses and after.hits == before.hits + 2
    for got, want in zip(table, reference_costs(cfg, req, dev)):
        assert got == pytest.approx(want, rel=REL)  # (seconds, joules)


def _counts(graph):
    return [tuple(getattr(n, f) for f in wl.COUNT_FIELDS) for n in graph.nodes]


@settings(max_examples=100, deadline=None)
@given(configs(), st.integers(1, 64), st.integers(1, 64))
def test_decode_counts_are_affine_in_the_kv_position(cfg, prompt, output):
    # the pricer's premise: the rows at positions 0 and 1 give every position
    zero, one = wl._layer_counts(cfg, 1, 0), wl._layer_counts(cfg, 1, 1)
    req = Request(prompt, output)
    for p in range(1, prompt + output + 1):
        rows = wl._layer_counts(cfg, 1, p)
        assert rows == [
            tuple(a + p * (b - a) for a, b in zip(r0, r1)) for r0, r1 in zip(zero, one)
        ]
        graph = build_layer_graph(cfg, req, "decode", position=p)
        assert _counts(graph) == rows
        assert tuple(n.kind for n in graph.nodes) == wl.LAYER_KINDS
    prefill = build_layer_graph(cfg, req, "prefill")
    assert _counts(prefill) == wl._layer_counts(cfg, prompt, prompt)
    mid = build_layer_graph(cfg, req, "decode")
    assert _counts(mid) == wl._layer_counts(cfg, 1, prompt + output // 2)
    with pytest.raises(ValueError, match="outside"):
        build_layer_graph(cfg, req, "decode", position=prompt + output + 1)


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
    dev = data.draw(devices(arithmetic_intensity(flip) * bandwidth, bandwidth))
    assert dev.ridge_point == arithmetic_intensity(flip)
    assume(boundedness(arithmetic_intensity(final), dev) == COMPUTE_BOUND)
    assert boundedness(arithmetic_intensity(first), dev) == MEMORY_BOUND
    assert_matches_reference(cfg, req, dev)


def decode_boundedness(cfg, req, dev, kernel):
    """Per-position classes of one decode kernel, from freshly built graphs."""
    return [
        boundedness(
            arithmetic_intensity(build_layer_graph(cfg, req, "decode", position=p).nodes[kernel]),
            dev,
        )
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
    ridge = arithmetic_intensity(build_layer_graph(cfg, req, "decode", position=at).nodes[kernel])
    for _ in range(abs(ulps)):
        ridge = math.nextafter(ridge, math.inf if ulps > 0 else 0.0)
    bandwidth = data.draw(st.one_of(st.floats(1e6, 1e13), st.integers(20, 43).map(2.0.__pow__)))
    dev = data.draw(devices(ridge * bandwidth, bandwidth))
    classes = decode_boundedness(cfg, req, dev, kernel)
    row = kernel_costs(cfg, req, dev)[12 + kernel]
    assert row.boundedness == classes[0]
    flips = [prompt + i for i in range(1, output) if classes[i] != classes[0]]
    assert row.flip_position == (flips[0] if flips else None)
    # the kernel's own row, not only the phase totals, sums the per-position loop
    nodes = [build_layer_graph(cfg, req, "decode", position=p).nodes[kernel]
             for p in range(prompt, prompt + output)]
    time_s = sum(roofline_time(n, dev) for n in nodes) * cfg.num_layers
    energy_j = sum(roofline_time(n, dev) * kernel_power(n, dev) for n in nodes) * cfg.num_layers
    assert row.time_s == pytest.approx(time_s, rel=REL)
    assert row.energy_j == pytest.approx(energy_j, rel=REL)
    assert_matches_reference(cfg, req, dev)


@settings(max_examples=100, deadline=None)
@given(configs(), st.integers(2, 64), st.integers(1, 64), st.sampled_from(_FFN),
       st.floats(0.0, 1.0), st.data())
def test_ffn_roof_flips_between_prefill_and_decode(cfg, prompt, output, kernel, share, data):
    """A ridge between an FFN kernel's decode and prefill intensities makes it
    compute-bound in prefill and memory-bound at every decode position."""
    req = Request(prompt, output)
    low = arithmetic_intensity(build_layer_graph(cfg, req, "decode").nodes[kernel])
    high = arithmetic_intensity(build_layer_graph(cfg, req, "prefill").nodes[kernel])
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
    for phase, (time_s, energy_j) in zip(("prefill", "decode"), phase_totals(rows)):
        phase_rows = [r for r in rows if r.phase == phase]
        assert sum(r.time_s for r in phase_rows) == pytest.approx(time_s, rel=REL)
        assert sum(r.energy_j for r in phase_rows) == pytest.approx(energy_j, rel=REL)
    decode_graphs = [
        build_layer_graph(cfg, req, "decode", position=p)
        for p in range(req.prompt_len, req.prompt_len + req.output_len)
    ]
    for i, row in enumerate(rows[12:]):
        assert row.flops == cfg.num_layers * sum(g.nodes[i].flops for g in decode_graphs)
        assert row.bytes == cfg.num_layers * sum(total_bytes(g.nodes[i]) for g in decode_graphs)


def _cli_text(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _cli_json(argv):
    return json.loads(_cli_text(argv))


@contextlib.contextmanager
def _resolving(cfg, dev):
    """The CLI resolves every --config and --device to these objects."""
    with mock.patch.object(assets, "load_llm_config", lambda _: cfg), \
            mock.patch.object(assets, "load_device", lambda _: dev):
        yield


def _request_args(req):
    return ["--prompt-len", str(req.prompt_len), "--output-len", str(req.output_len)]


@settings(max_examples=100, deadline=None)
@given(configs(), requests, devices(), st.floats(0.25, 16.0), st.floats(0.25, 16.0))
def test_row_paths_equal_the_graph_reference_bit_for_bit(cfg, req, dev, compute, bandwidth):
    """estimate, roofline and whatif read count rows; each figure equals the
    one the graph helpers compute from `build_layer_graph`, to the bit."""
    prefill = build_layer_graph(cfg, req, "prefill")
    mid = build_layer_graph(cfg, req, "decode")
    with _resolving(cfg, dev):
        est = _cli_json(["estimate", *_request_args(req)])
        kernels = _cli_json(["roofline", *_request_args(req)])["kernels"]
    assert est["prefill"]["intensity"] == phase_intensity(prefill)
    assert est["prefill"]["boundedness"] == classify(prefill, dev)
    assert est["decode"]["intensity_mid"] == phase_intensity(mid)
    assert est["decode"]["boundedness_mid"] == classify(mid, dev)
    assert kernels == [
        {"phase": graph.phase, "kind": node.kind,
         "intensity": arithmetic_intensity(node),
         "perf": min(dev.peak_ops, dev.mem_bandwidth * arithmetic_intensity(node)),
         "boundedness": boundedness(arithmetic_intensity(node), dev)}
        for graph in (prefill, mid) for node in graph.nodes
    ]
    modified = scaled_device(dev, compute, bandwidth)
    for graph in (prefill, mid):
        assert whatif_speedup(cfg, req, graph.phase, dev, modified) == (
            graph_time(graph, dev) / graph_time(graph, modified)
        )


@settings(max_examples=100, deadline=None)
@given(configs(), st.builds(Request, st.integers(1, 10**6), st.integers(1, 10**6)), devices())
def test_estimate_intensities_equal_layer_intensity_bit_for_bit(cfg, req, dev):
    """estimate takes its prefill intensity from the priced rows and its
    mid-decode one from the cached decode lines; both equal `layer_intensity`
    of that phase's count rows, for requests up to a million tokens."""
    with _resolving(cfg, dev):
        est = _cli_json(["estimate", *_request_args(req)])
    assert est["prefill"]["intensity"] == wl.layer_intensity(wl.layer_rows(cfg, req, "prefill"))
    assert est["decode"]["intensity_mid"] == wl.layer_intensity(wl.layer_rows(cfg, req, "decode"))


@settings(max_examples=30, deadline=None)
@given(configs(), requests, devices())
def test_breakdown_columns_are_the_kernel_cost_fields(cfg, req, dev):
    rows = kernel_costs(cfg, req, dev)
    args = ["estimate", *_request_args(req), "--breakdown"]
    with _resolving(cfg, dev):
        kernels = _cli_json(args)["kernels"]
        csv = _cli_text([*args, "--format", "csv"]).splitlines()
    assert kernels == [r._asdict() for r in rows]
    assert all(sorted(k) == sorted(KernelCost._fields) for k in kernels)
    assert csv[0] == ",".join(KernelCost._fields) and len(csv) == 1 + len(rows)
    for field in KernelCost._fields:
        with pytest.raises(AttributeError):
            setattr(rows[0], field, None)


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
             "intensity": arithmetic_intensity(node),
             "perf": min(dev.peak_ops, dev.mem_bandwidth * arithmetic_intensity(node)),
             "boundedness": boundedness(arithmetic_intensity(node), dev)}
            for graph in (prefill, mid) for node in graph.nodes
        ]
        assert _cli_json(["roofline", *args])["kernels"] == kernels

        prefill_ops = graph_flops(prefill) * cfg.num_layers
        total_ops = (graph_flops(prefill) + output * graph_flops(mid)) * cfg.num_layers
        assert global_features(cfg, req, "prefill").total_ops == float(prefill_ops)
        assert global_features(cfg, req, "total").total_ops == float(total_ops)


_lengths = st.one_of(st.integers(1, 600), st.integers(1, 10**12))


@settings(max_examples=200, deadline=None)
@given(st.one_of(configs(), st.sampled_from(_CONFIGS).map(assets.load_llm_config)),
       st.builds(Request, _lengths, _lengths))
def test_global_features_ops_are_the_summed_layer_row_flops(cfg, req):
    """`global_features` takes both op counts from the cached layer line; they
    are the summed `layer_rows` flops of each phase, decode at its mid-sequence
    position p + o // 2, times the layer count, exactly."""
    prefill = sum(row[0] for row in wl.layer_rows(cfg, req, "prefill"))
    mid = req.prompt_len + req.output_len // 2
    decode = sum(row[0] for row in wl.layer_rows(cfg, req, "decode", mid))
    assert global_features(cfg, req, "prefill").total_ops == float(prefill * cfg.num_layers)
    assert global_features(cfg, req, "total").total_ops == float(
        (prefill + req.output_len * decode) * cfg.num_layers)


def test_estimate_and_make_sample_build_each_layer_graph_once(monkeypatch):
    """`make_sample` builds each of its two layer graphs once, from count rows;
    estimate, whatif, roofline and the pricer read count rows and build no
    graph.  None of them builds a `KernelNode`."""
    graphs, nodes = [], []
    init, post_init = wl.LayerGraph.__init__, wl.KernelNode.__post_init__
    monkeypatch.setattr(wl.LayerGraph, "__init__",
                        lambda self, *a, **kw: graphs.append(kw["phase"]) or init(self, *a, **kw))
    monkeypatch.setattr(wl.KernelNode, "__post_init__",
                        lambda self: nodes.append(self.kind) or post_init(self))
    for argv in (["estimate", "--prompt-len", "100", "--output-len", "64"],
                 ["estimate", "--prompt-len", "100", "--output-len", "64", "--breakdown"],
                 ["whatif", "--scenario", "rk-npu"],
                 ["roofline"]):
        _cli_json(argv)
    cfg, dev = assets.load_llm_config("tinyllama-11b"), assets.load_device("rk3588")
    kernel_costs(cfg, Request(96, 64), dev)
    assert graphs == []
    make_sample(cfg, Request(96, 64), dev, np.random.default_rng(0), 0.05)
    assert graphs == ["prefill", "decode"]
    assert nodes == []


@settings(max_examples=100, deadline=None)
@given(configs(), requests, devices())
def test_decode_energy_strictly_increases_with_output_len(cfg, req, dev):
    longer = Request(req.prompt_len, req.output_len + 1)
    (_, decode_j), (_, longer_j) = (request_energy(cfg, r, dev) for r in (req, longer))
    assert longer_j > decode_j


@settings(max_examples=100, deadline=None)
@given(configs(), requests, devices())
def test_total_energy_does_not_fall_when_the_prompt_grows(cfg, req, dev):
    longer = Request(req.prompt_len + 1, req.output_len)
    try:
        shorter_j, longer_j = (sum(request_energy(cfg, r, dev)) for r in (req, longer))
    except UserInputError as exc:
        if "DRAM" not in str(exc):
            raise
        reject()  # the request does not fit the device's memory
    assert longer_j >= shorter_j


def test_bundled_configs_and_devices_match_reference():
    for name in ("qwen15-05b", "tinyllama-11b", "internlm2-18b"):
        cfg = assets.load_llm_config(name)
        for dev_name in ("rk3568", "rk3588", "orin_nx", "agx_orin"):
            assert_matches_reference(cfg, Request(300, 200), assets.load_device(dev_name))


def test_requests_beyond_dram_are_rejected():
    cfg = assets.load_llm_config("internlm2-18b")
    dev = assets.load_device("rk3568")
    fits = (dev.dram_capacity - weight_memory_bytes(cfg)) // kv_cache_bytes(cfg, 1)
    kernel_costs(cfg, Request(1, int(fits) - 1), dev)
    too_long = Request(1, int(fits))
    for fn in (kernel_costs, featurize):
        with pytest.raises(UserInputError, match="DRAM"):
            fn(cfg, too_long, dev)
    with pytest.raises(UserInputError):
        make_sample(cfg, too_long, dev, np.random.default_rng(0), 0.0)
