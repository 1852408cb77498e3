"""The reference oracle against numbers worked out by hand."""

import numpy as np
import pytest

import reference as ref

# d=4, 2 heads of 2, ffn 8, two layers, 1-byte weights, 2-byte activations.
TINY = {"name": "tiny", "num_layers": 2, "hidden_dim": 4, "num_heads": 2, "head_dim": 2,
        "ffn_dim": 8, "vocab_size": 10, "weight_bytes": 1, "act_bytes": 2}

# Prefill of 3 tokens (t = s = 3), kernel by kernel from the documented formulas:
#   norm      7td = 84     2d*wb + td*ab + td*ab          = 8 + 24 + 24      = 56
#   qkv_proj  6tdd = 288   3dd*wb + td*ab + td*ab + 2td*ab = 48 + 24 + 24 + 48 = 144
#   attn_score 2tsd = 72   td*ab + sd*ab + hts*ab         = 24 + 24 + 36     = 84
#   softmax   5hts = 90    2 * hts*ab                     = 72
#   attn_value 2tsd = 72   hts*ab + sd*ab + td*ab         = 36 + 24 + 24     = 84
#   out_proj  2tdd = 96    dd*wb + 2td*ab                 = 16 + 48          = 64
#   residual  2td = 24     3td*ab                         = 72
#   ffn_up    2tdf = 192   df*wb + td*ab + tf*ab          = 32 + 24 + 48     = 104
#   ffn_act   4tf = 96     2tf*ab                         = 96
#   ffn_down  2tdf = 192   df*wb + tf*ab + td*ab          = 32 + 48 + 24     = 104
PREFILL_FLOPS = [84, 288, 72, 90, 72, 96, 24, 84, 192, 96, 192, 24]
PREFILL_BYTES = [56, 144, 84, 72, 84, 64, 72, 56, 104, 96, 104, 72]

# 100 flop/s against 10 B/s: ridge 10, every kernel memory bound, so each runs
# bytes/10 seconds at 1 + 0.6 * (3 - 1) = 2.2 W.  Times sum to 100.8 s a layer.
SLOW_MEMORY = {"name": "slow", "peak_ops": 100.0, "mem_bandwidth": 10.0, "idle_power": 1.0,
               "active_power": 3.0, "dram_capacity": 1e9}
# 100 flop/s against 1000 B/s: ridge 0.1, every kernel compute bound at 3 W;
# flops sum to 1314, so 13.14 s a layer.
FAST_MEMORY = dict(SLOW_MEMORY, name="fast", mem_bandwidth=1000.0)


def test_kernel_table_matches_hand_count():
    flops, moved = ref.kernel_table(TINY, 3, 3)
    assert flops[:, 0].tolist() == PREFILL_FLOPS
    assert moved[:, 0].tolist() == PREFILL_BYTES


def test_decode_row_matches_hand_count():
    # One token against a cache of 5: attn_score is 2*1*5*4 = 40 flops and
    # moves 1*4*2 + 5*4*2 + 2*1*5*2 = 8 + 40 + 20 = 68 bytes.
    flops, moved = ref.kernel_table(TINY, 1, np.array([5]))
    assert (flops[2, 0], moved[2, 0]) == (40, 68)


@pytest.mark.parametrize("dev, joules, seconds", [
    (SLOW_MEMORY, 2 * 2.2 * 100.8, 2 * 100.8),
    (FAST_MEMORY, 2 * 3.0 * 13.14, 2 * 13.14),
])
def test_prefill_energy_matches_hand_sum(dev, joules, seconds):
    (prefill_j, prefill_s), _ = ref.request_energy(TINY, dev, 3, 1)
    assert prefill_j == pytest.approx(joules, rel=1e-12)
    assert prefill_s == pytest.approx(seconds, rel=1e-12)


def test_decode_sums_one_graph_per_position():
    _, (decode_j, decode_s) = ref.request_energy(TINY, SLOW_MEMORY, 3, 4)
    expected_j = expected_s = 0.0
    for position in (3, 4, 5, 6):
        t, p, _ = ref.roofline(*ref.kernel_table(TINY, 1, position), SLOW_MEMORY)
        expected_j += float((t * p).sum()) * 2
        expected_s += float(t.sum()) * 2
    assert decode_j == pytest.approx(expected_j, rel=1e-12)
    assert decode_s == pytest.approx(expected_s, rel=1e-12)


def test_boundedness_sits_at_the_ridge():
    assert ref.boundedness(10.0, SLOW_MEMORY) == ref.MEMORY_BOUND
    assert ref.boundedness(10.000001, SLOW_MEMORY) == ref.COMPUTE_BOUND


def test_breakeven_closed_form():
    # 1 kg over 1 year at 3.6e6 J/request and 1 kg/kWh: one request saves 1 kg,
    # so 1/365 requests a day pay back the kilogram.
    assert ref.breakeven(1.0, 3.6e6, 1.0, 1.0) == pytest.approx(1 / 365.0, rel=1e-15)


def test_embodied_from_bom_arithmetic():
    bom = {"name": "b", "die_area_cm2": 2.0, "cpa_die_kg_per_cm2": 1.5,
           "units": [{"name": "npu", "area_fraction": 0.25}],
           "pcb_area_cm2": 10.0, "cpa_pcb_kg_per_cm2": 0.1, "dram_kg": 0.5,
           "peripherals": [["cam", 0.2]]}
    doc = ref.embodied(bom)
    assert doc["components"] == {"pcb": 1.0, "die:npu": 0.75, "die:other": 2.25,
                                 "dram": 0.5, "periph:cam": 0.2}
    assert doc["total_kg"] == pytest.approx(4.7)
    assert doc["llm_fraction_pct"] == pytest.approx(100 * 1.25 / 4.7)
