"""Reference oracle: one kernel graph per decode position, summed in a loop.

`co2meter.workload.kernel_costs` prices decode from a closed-form affine
table instead; the tests hold `phase_totals` of its rows to this loop.  It
prices each `KernelNode` of a graph by its own byte total, intensity and
roofline time, written out here field by field.
"""

from co2meter.workload import (
    COMPUTE_BOUND,
    MEMORY_BOUND_POWER_BLEND,
    boundedness,
    build_layer_graph,
    graph_time,
)


def total_bytes(node):
    """Every byte a kernel loads or stores."""
    return (node.weight_bytes_loaded + node.act_bytes_loaded + node.act_bytes_stored
            + node.kv_bytes_loaded + node.kv_bytes_stored)


def arithmetic_intensity(node):
    """flops per moved byte; 0 when the kernel moves no bytes."""
    moved = total_bytes(node)
    return node.flops / moved if moved > 0 else 0.0


def roofline_time(node, dev):
    """Latency lower bound: max of compute time and memory-move time."""
    return max(node.flops / dev.peak_ops, total_bytes(node) / dev.mem_bandwidth)


def kernel_power(node, dev):
    """Power draw while a kernel runs, from its roofline boundedness."""
    if boundedness(arithmetic_intensity(node), dev) == COMPUTE_BOUND:
        return dev.active_power
    return dev.idle_power + MEMORY_BOUND_POWER_BLEND * (
        dev.active_power - dev.idle_power
    )


def graph_energy(graph, dev, num_layers):
    """Joules for `num_layers` executions of the layer graph on a device."""
    per_layer = sum(roofline_time(n, dev) * kernel_power(n, dev) for n in graph.nodes)
    return per_layer * num_layers


def reference_costs(cfg, req, dev):
    """((prefill_s, prefill_j), (decode_s, decode_j)) for one request."""
    graph = build_layer_graph(cfg, req, "prefill")
    prefill = (
        graph_time(graph, dev) * cfg.num_layers,
        graph_energy(graph, dev, cfg.num_layers),
    )
    decode_s = decode_j = 0.0
    for step in range(req.output_len):
        graph = build_layer_graph(cfg, req, "decode", position=req.prompt_len + step)
        decode_s += graph_time(graph, dev) * cfg.num_layers
        decode_j += graph_energy(graph, dev, cfg.num_layers)
    return prefill, (decode_s, decode_j)
