"""Oracle cost table: equal to the per-position graph loop, monotone, DRAM-checked."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from co2meter import assets
from co2meter.errors import UserInputError
from co2meter.predictor import featurize, make_sample, phase_costs
from co2meter.workload import (
    COMPUTE_BOUND,
    MEMORY_BOUND,
    DeviceSpec,
    LlmConfig,
    Request,
    build_layer_graph,
    classify_node,
    kv_cache_bytes,
    weight_memory_bytes,
)
from oracle_reference import reference_costs

REL = 1e-12
_SCORE = 2  # index of attn_score in a layer graph


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
