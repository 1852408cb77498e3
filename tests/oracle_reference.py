"""Reference oracle: one kernel graph per decode position, summed in a loop.

`co2meter.workload.kernel_costs` prices decode from a closed-form affine
table instead; the tests hold `phase_totals` of its rows to this loop.
"""

from co2meter.workload import (
    COMPUTE_BOUND,
    MEMORY_BOUND_POWER_BLEND,
    boundedness,
    build_layer_graph,
    graph_time,
    roofline_time,
)


def kernel_power(node, dev):
    """Power draw while a kernel runs, from its roofline boundedness."""
    if boundedness(node.arithmetic_intensity, dev) == COMPUTE_BOUND:
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
