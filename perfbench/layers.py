"""Per-layer probes of a traced run and the per-layer metrics derived from them.

After the traced loop, `probe` times the public functions of every layer on
the workload's own inputs (its requests, its CLI cycle, its dataset; the
CLI-only and estimate-only workloads build the train_eval dataset and run one
train_eval op to reach the predictor).  Every call sits inside a span, and
`derive` computes each metric from the spans alone.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np

from metrics import PER_LAYER
from workloads import DATASET_SIZE, TrainEval, cli_cycle


PROCESS_REPS = 5  # fresh-process probes
REPS = 3  # in-process probes of whole calls
LOOP = 50  # calls per span for functions that take microseconds


def probe(wl, ctx) -> bool:
    """Time every layer on the workload's inputs; False if an output was wrong."""
    _process_probes(ctx)
    correct = _cli_probes(wl, ctx)
    _program_probes(wl, ctx)
    return _predictor_probes(wl, ctx) and correct


def _run(ctx, *args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=ctx.child_env(), cwd=ctx.scratch)
    if proc.returncode != 0:
        raise RuntimeError(f"{args}: exit {proc.returncode}: {proc.stderr[-300:]}")
    return proc


def _importtime_us(stderr: str) -> dict[str, int]:
    """Cumulative microseconds spent importing co2meter.predictor and scipy.

    Either is 0 when `import co2meter.cli` no longer imports it.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if cumulative.strip().isdigit():
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    scipy_rows = [r for r in rows if r[1].split(".")[0] == "scipy"]
    top = min((depth for depth, _, _ in scipy_rows), default=0)
    return {
        "predictor.import": sum(us for _, name, us in rows if name == "co2meter.predictor"),
        "device_models.import_scipy": sum(us for depth, _, us in scipy_rows if depth == top),
    }


def _process_probes(ctx) -> None:
    """Bare interpreter start, `import co2meter.cli` in a fresh process, -X importtime."""
    tr = ctx.tracer
    timed_import = ("import time; t0 = time.perf_counter_ns(); import co2meter.cli; "
                    "t1 = time.perf_counter_ns(); print(t0, t1)")
    for _ in range(PROCESS_REPS):
        with tr.span("cli.python_start"):
            _run(ctx, "-c", "pass")
        with tr.span("cli.process_import"):
            t0, t1 = map(int, _run(ctx, "-c", timed_import).stdout.split())
            tr.add("cli.import", t0, t1)
        with tr.span("cli.process_importtime"):
            found = _importtime_us(_run(ctx, "-X", "importtime", "-c", "import co2meter.cli").stderr)
            # importtime gives durations only: place each span at the child's end.
            end = time.perf_counter_ns()
            for name, us in found.items():
                tr.add(name, end - us * 1000, end)


def _cli_probes(wl, ctx) -> bool:
    """In-process `main()` for each subcommand of the seed's CLI cycle, and the
    estimate overhead: main(["estimate", ...]) against request_energy alone."""
    from co2meter import assets, cli
    from co2meter.predictor import request_energy
    from co2meter.workload import Request

    tr, out, correct = ctx.tracer, ctx.scratch / "probe.json", True
    for op in cli_cycle(ctx.seed, 0, ctx.assets):
        for _ in range(REPS):
            with tr.span(f"cli.main:{op.kind}"):
                code = cli.main([*op.argv, "--out", str(out)])
            try:
                if code != 0:
                    raise RuntimeError(f"exit {code}")
                op.check(json.loads(out.read_text()))
                out.unlink()
            except Exception as exc:
                correct = False
                print(f"probe check failed: {op.argv}: {exc!r}", file=sys.stderr)
    for cfg, dev, p, o in wl.requests():
        argv = ["estimate", "--config", cfg, "--device", dev, "--prompt-len", str(p),
                "--output-len", str(o), "--out", str(out)]
        with tr.span("cli.main:estimate_request"):
            code = cli.main(argv)
        if code != 0:
            correct = False
            print(f"probe failed: {argv}: exit {code}", file=sys.stderr)
        out.unlink(missing_ok=True)
        c, d = assets.load_llm_config(cfg), assets.load_device(dev)
        with tr.span("oracle.request_energy"):
            request_energy(c, Request(p, o), d)
    return correct


def _program_probes(wl, ctx) -> None:
    """device_models, assets, workload, oracle, embodied and accounting."""
    from co2meter import assets
    from co2meter import device_models as dm
    from co2meter.accounting import app_energy
    from co2meter.embodied import soc_embodied
    from co2meter.predictor import make_sample
    from co2meter.workload import (Request, apply_roofline, build_layer_graph,
                                   global_features, graph_time)

    tr = ctx.tracer
    csvs = [assets.measurement_csv(m) for m in ("net", "camera", "mic", "video", "speaker", "display")]
    for _ in range(REPS):
        with tr.span("device_models.load_samples_csv", n=len(csvs)):
            samples = {p.stem: dm.load_samples_csv(p) for p in csvs}
        with tr.span("device_models.fit_speaker"):
            dm.fit_speaker(samples["speaker"])
        with tr.span("device_models.fit_linear_rate", n=LOOP):
            for _ in range(LOOP):
                dm.fit_linear_rate(samples["net"])
        with tr.span("assets.demo_peripheral_models"):
            models = assets.demo_peripheral_models()
        with tr.span("assets.load"):
            for name in assets.list_assets("devices"):
                assets.load_device(name)
            for name in assets.list_assets("llm_configs"):
                assets.load_llm_config(name)
            boms = [assets.load_bom(name) for name in assets.list_assets("boms")]
            assets.load_carbon_intensities()
            pipeline = assets.load_demo_pipeline()

    requests = [(assets.load_llm_config(c), Request(p, o), assets.load_device(d))
                for c, d, p, o in wl.requests()]
    for _ in range(REPS):
        with tr.span("workload.build_layer_graph", n=LOOP * 3 * len(requests)):
            for _ in range(LOOP):
                graphs = []
                for cfg, req, dev in requests:
                    graphs.append((build_layer_graph(cfg, req, "prefill"), dev))
                    graphs.append((build_layer_graph(cfg, req, "decode"), dev))
                    graphs.append((build_layer_graph(cfg, req, "decode",
                                                     position=req.prompt_len + req.output_len), dev))
        with tr.span("workload.graph_time", n=LOOP * len(graphs)):
            for _ in range(LOOP):
                for g, dev in graphs:
                    graph_time(g, dev)
        with tr.span("workload.apply_roofline", n=LOOP * len(graphs)):
            for _ in range(LOOP):
                for g, dev in graphs:
                    apply_roofline(g, dev)
        with tr.span("workload.global_features", n=LOOP * len(requests)):
            for _ in range(LOOP):
                for cfg, req, _ in requests:
                    global_features(cfg, req, "total")
        with tr.span("embodied.soc_embodied", n=LOOP * len(boms)):
            for _ in range(LOOP):
                for bom in boms:
                    soc_embodied(bom)
        with tr.span("accounting.app_energy", n=LOOP):
            for _ in range(LOOP):
                app_energy(pipeline, models, lambda stage: 1.0)
    rng = np.random.default_rng(ctx.seed)
    with tr.span("oracle.make_sample", n=len(requests)):
        for cfg, req, dev in requests:
            make_sample(cfg, req, dev, rng, 0.05)


def _predictor_probes(wl, ctx) -> bool:
    """data, gnn and training on the train_eval dataset and a trained model."""
    from co2meter.predictor import (Adam, backward_tower, forward_tower, node_feature_matrix,
                                    predict_sample)
    from co2meter.predictor.gnn import normalize_globals, normalize_nodes
    from co2meter.predictor.data import globals_vector
    from co2meter.workload import in_neighbor_lists

    tr, correct = ctx.tracer, True
    te = wl
    if not isinstance(wl, TrainEval):
        te = TrainEval(ctx)
        te.setup()
        op = te.round(0)[0]
        with tr.span(f"op:{op.kind}"):
            result = te.run(op)
        try:
            te.check(op, result)
        except Exception as exc:
            correct = False
            print(f"probe check failed: train_eval: {exc!r}", file=sys.stderr)
    params = te.params

    with tr.span("data.node_feature_matrix", n=2 * len(te.dataset)):
        for s in te.dataset:
            node_feature_matrix(s.prefill_graph)
            node_feature_matrix(s.decode_graph)

    norms, tower = params.norms, params.prefill
    inputs = [(normalize_nodes(node_feature_matrix(s.prefill_graph), norms),
               in_neighbor_lists(s.prefill_graph),
               normalize_globals(globals_vector(s.prefill_globals), norms, "prefill"))
              for s in te.test]
    for _ in range(REPS):
        caches = []
        with tr.span("gnn.forward_tower", n=len(inputs)):
            for h0, preds, g in inputs:
                caches.append(forward_tower(tower, h0, preds, g)[1])
        with tr.span("gnn.backward_tower", n=len(caches)):
            for cache in caches:
                backward_tower(tower, cache, 1.0)
        with tr.span("gnn.predict_sample", n=len(te.test)):
            for s in te.test:
                predict_sample(params, s)

    arrays = {k: v.copy() for k, v in tower.arrays().items()}
    grads = {k: np.full_like(v, 1e-3) for k, v in arrays.items()}
    adam = Adam(arrays, 1e-3)
    for _ in range(REPS):
        with tr.span("training.adam_step", n=LOOP):
            for _ in range(LOOP):
                adam.step(arrays, grads)
    return correct


def derive(tr, overhead_pct: float) -> dict[str, float]:
    """Every PER_LAYER metric, from the spans and counters alone."""
    per = tr.median_per_call
    m = {
        "cli.python_start_s": per("cli.python_start"),
        "cli.import_s": per("cli.import"),
        "cli.fit_s": tr.mean_per_call("cli.main:fit"),
        "cli.estimate_s": tr.mean_per_call("cli.main:estimate"),
        "cli.embodied_s": tr.mean_per_call("cli.main:embodied"),
        "cli.whatif_s": tr.mean_per_call("cli.main:whatif"),
        "cli.breakeven_s": tr.mean_per_call("cli.main:breakeven"),
        "cli.roofline_s": tr.mean_per_call("cli.main:roofline"),
        "cli.pipeline_s": tr.mean_per_call("cli.main:pipeline"),
        "cli.estimate_overhead_s": (tr.total("cli.main:estimate_request")
                                    - tr.total("oracle.request_energy")),
        "predictor.import_s": per("predictor.import"),
        "device_models.import_scipy_s": per("device_models.import_scipy"),
        "device_models.fit_speaker_ms": 1e3 * per("device_models.fit_speaker"),
        "device_models.fit_linear_rate_ms": 1e3 * per("device_models.fit_linear_rate"),
        "device_models.load_samples_csv_ms": 1e3 * per("device_models.load_samples_csv"),
        "assets.demo_peripheral_models_ms": 1e3 * per("assets.demo_peripheral_models"),
        "assets.load_ms": 1e3 * per("assets.load"),
        "workload.build_layer_graph_us": 1e6 * per("workload.build_layer_graph"),
        "workload.graph_time_us": 1e6 * per("workload.graph_time"),
        "workload.apply_roofline_us": 1e6 * per("workload.apply_roofline"),
        "workload.global_features_us": 1e6 * per("workload.global_features"),
        "oracle.request_energy_s": tr.total("oracle.request_energy"),
        "oracle.make_sample_ms": 1e3 * per("oracle.make_sample"),
        "oracle.gen_dataset_s": per("oracle.gen_oracle_dataset"),
        "data.node_feature_matrix_us": 1e6 * per("data.node_feature_matrix"),
        "data.write_jsonl_ms_per_sample": 1e3 * per("data.write_dataset_jsonl"),
        "data.read_jsonl_ms_per_sample": 1e3 * per("data.read_dataset_jsonl"),
        "data.jsonl_bytes_per_sample": tr.counters["data.jsonl_bytes"] / DATASET_SIZE,
        "gnn.forward_us": 1e6 * per("gnn.forward_tower"),
        "gnn.backward_us": 1e6 * per("gnn.backward_tower"),
        "gnn.predict_sample_us": 1e6 * per("gnn.predict_sample"),
        "gnn.params_roundtrip_ms": 1e3 * (per("gnn.save_params_json") + per("gnn.load_params_json")),
        "training.train_s": per("training.train"),
        "training.evaluate_s": per("training.evaluate_params"),
        "training.adam_step_us": 1e6 * per("training.adam_step"),
        "embodied.soc_embodied_us": 1e6 * per("embodied.soc_embodied"),
        "accounting.app_energy_us": 1e6 * per("accounting.app_energy"),
        "trace.overhead_pct": overhead_pct,
    }
    assert list(m) == [name for name, _ in PER_LAYER]
    return m
