"""Command-line surface tying the modules together.

Subcommands: fit, estimate, dataset, train, eval, embodied, whatif,
breakeven, roofline, pipeline.  Global flags `--seed`, `--format`, `--out`
apply to every subcommand.

Every command is deterministic given its arguments: seeds are explicit
(default 42), emitted artifacts carry no timestamps, and JSON keys are
sorted, so identical invocations produce byte-identical output.  Exit codes:
0 success, 2 user-input error (malformed files, unknown names, invalid
values), 1 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from typing import Callable, Sequence

from . import assets
from . import device_models as dm
from .accounting import (
    CameraInput,
    LlmStage,
    SpeakerOutput,
    UsageProfile,
    app_energy,
    breakdown_to_json,
    breakeven_requests,
    load_ci_table,
    load_pipeline_json,
    total_footprint,
)
from .embodied import (
    ScaleUnit,
    SetDram,
    load_bom_json,
    report_to_json,
    soc_embodied,
    whatif_bom,
)
from .errors import CO2MeterError, NoBreakEvenError, UserInputError
from .predictor import (
    KernelCost,
    TrainConfig,
    evaluate_baseline_total,
    evaluate_params,
    featurize,
    fit_ridge_globals,
    gen_oracle_dataset,
    kernel_costs,
    llm_request_energy,
    load_params_json,
    phase_totals,
    predict_sample,
    predict_single_phase,
    read_dataset_jsonl,
    sample_regime_mixed_request,
    sample_trace_request,
    save_params_json,
    split_indices,
    train,
    train_single_phase,
    write_dataset_jsonl,
)
from .workload import (
    Request,
    classify,
    classify_node,
    load_config_json,
    load_device_json,
    phase_intensity,
    request_kernels,
    scaled_device,
    whatif_speedup,
)

_SPLIT_ORDER = ("train", "val", "test")

# What-if scenarios pair a device scaling with the BOM change that pays for
# it: rk-mem quadruples the memory system, rk-npu also scales the NPU 8x.
_SCENARIOS = {
    "rk-mem": {"compute": 1.0, "bandwidth": 4.0, "mods": (SetDram(1.68),)},
    "rk-npu": {
        "compute": 8.0,
        "bandwidth": 4.0,
        "mods": (SetDram(1.68), ScaleUnit("npu", 8.0)),
    },
}

# Camera/speaker stage parameters used when swapping pipeline variants.
_CAMERA_DURATION_S = 2.0
_CAMERA_FRAMES = 3.0
_SPEAKER_VOLUME = 60.0


# ---------------------------------------------------------------------------
# Output plumbing


def _csv_cell(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def _render_csv(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def _emit(args: argparse.Namespace, doc: dict, header, rows) -> None:
    if args.format == "csv":
        text = _render_csv(header, rows)
    else:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _flat_rows(doc: dict, prefix: str = "") -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    for key in sorted(doc):
        value = doc[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flat_rows(value, f"{name}."))
        else:
            rows.append((name, value))
    return rows


# ---------------------------------------------------------------------------
# Asset-or-path resolution


def _looks_like_path(value: str) -> bool:
    return value.endswith(".json") or "/" in value or Path(value).is_file()


def _resolve(value: str, loader: Callable, bundled: Callable):
    if _looks_like_path(value):
        return loader(value)
    return bundled(value)


def _resolve_device(value: str):
    return _resolve(value, load_device_json, assets.load_device)


def _resolve_config(value: str):
    return _resolve(value, load_config_json, assets.load_llm_config)


def _resolve_bom(value: str):
    return _resolve(value, load_bom_json, assets.load_bom)


def _resolve_pipeline(value: str):
    if _looks_like_path(value):
        return load_pipeline_json(
            value,
            config_resolver=_resolve_config,
            device_resolver=_resolve_device,
        )
    return assets.load_demo_pipeline(value)


def _ci_table(args: argparse.Namespace):
    if args.ci_table:
        return load_ci_table(args.ci_table)
    return assets.load_carbon_intensities()


def _ci_for(args: argparse.Namespace):
    table = _ci_table(args)
    if args.region not in table:
        raise UserInputError(
            f"unknown region {args.region!r}; have {sorted(table)}"
        )
    return table[args.region]


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_fit(args: argparse.Namespace) -> None:
    samples = dm.load_samples_csv(args.csv)
    report = dm.fit_by_name(args.model, samples)
    doc = dm.model_to_json(args.model, report)
    doc["max_abs_err"] = report.max_abs_err
    doc["n_samples"] = report.n_samples
    rows: list[tuple[str, object]] = [("model", args.model)]
    rows += sorted(doc["params"].items())
    rows += [
        ("mae", report.mae),
        ("max_abs_err", report.max_abs_err),
        ("n_samples", report.n_samples),
    ]
    _emit(args, doc, ("key", "value"), rows)


_KERNEL_COLUMNS = tuple(f.name for f in dataclasses.fields(KernelCost))


def _cmd_estimate(args: argparse.Namespace) -> None:
    cfg = _resolve_config(args.config)
    dev = _resolve_device(args.device)
    req = Request(args.prompt_len, args.output_len)
    kernels = request_kernels(cfg, req)
    rows = kernel_costs(cfg, req, dev, kernels)
    (prefill_s, prefill_j), (decode_s, decode_j) = phase_totals(rows)
    mid_graph = kernels.decode()

    doc = {
        "config": cfg.name,
        "device": dev.name,
        "prompt_len": req.prompt_len,
        "output_len": req.output_len,
        "prefill": {
            "energy_j": prefill_j,
            "time_s": prefill_s,
            "intensity": phase_intensity(kernels.prefill),
            "boundedness": classify(kernels.prefill, dev),
        },
        "decode": {
            "energy_j": decode_j,
            "time_s": decode_s,
            "intensity_mid": phase_intensity(mid_graph),
            "boundedness_mid": classify(mid_graph, dev),
        },
        "total_energy_j": prefill_j + decode_j,
    }
    if not args.breakdown:
        _emit(args, doc, ("key", "value"), _flat_rows(doc))
        return
    doc["kernels"] = [dataclasses.asdict(r) for r in rows]
    _emit(args, doc, _KERNEL_COLUMNS, [dataclasses.astuple(r) for r in rows])


def _cmd_dataset(args: argparse.Namespace) -> None:
    configs = [_resolve_config(n) for n in args.configs.split(",") if n]
    devices = [_resolve_device(n) for n in args.devices.split(",") if n]
    sampler = (
        sample_regime_mixed_request if args.regime == "mixed"
        else sample_trace_request
    )
    samples = gen_oracle_dataset(
        configs,
        devices,
        args.n,
        noise_sigma=args.sigma,
        seed=args.seed,
        request_sampler=sampler,
    )
    write_dataset_jsonl(args.dataset_out, samples)
    doc = {"n": len(samples), "path": args.dataset_out}
    _emit(args, doc, ("key", "value"), _flat_rows(doc))


def _metrics_doc(params, dataset, seed, train_frac, val_frac) -> dict:
    splits = dict(zip(_SPLIT_ORDER, split_indices(len(dataset), train_frac, val_frac, seed)))
    doc = {}
    for name in _SPLIT_ORDER:
        idx = splits[name]
        if len(idx) == 0:
            continue
        metrics = evaluate_params(params, [dataset[i] for i in idx])
        doc[name] = {
            phase: {"mape": m.mape, "eb10": m.eb10, "n": m.n}
            for phase, m in metrics.items()
        }
    return doc


def _metrics_rows(doc: dict) -> list[tuple[object, ...]]:
    rows: list[tuple[object, ...]] = []
    for split in _SPLIT_ORDER:
        if split not in doc:
            continue
        for phase in sorted(doc[split]):
            m = doc[split][phase]
            rows.append((split, phase, m["mape"], m["eb10"], m["n"]))
    return rows


def _cmd_train(args: argparse.Namespace) -> None:
    dataset = read_dataset_jsonl(args.dataset)
    cfg = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        seed=args.seed,
        train_frac=args.train_frac,
        val_frac=args.val_frac,
    )
    params, history = train(dataset, cfg)
    if args.history_out:
        with open(args.history_out, "w") as fh:
            for entry in history:
                fh.write(json.dumps(entry, sort_keys=True, allow_nan=False) + "\n")
    meta = {
        "epochs": cfg.epochs,
        "learning_rate": cfg.learning_rate,
        "batch_size": cfg.batch_size,
        "seed": cfg.seed,
        "train_frac": cfg.train_frac,
        "val_frac": cfg.val_frac,
        "n_samples": len(dataset),
    }
    save_params_json(args.params_out, params, meta=meta)
    doc = _metrics_doc(params, dataset, cfg.seed, cfg.train_frac, cfg.val_frac)
    _emit(args, doc, ("split", "phase", "mape", "eb10", "n"), _metrics_rows(doc))


def _cmd_eval(args: argparse.Namespace) -> None:
    dataset = read_dataset_jsonl(args.dataset)
    params, meta = load_params_json(args.params)
    seed = int(meta.get("seed", args.seed))
    train_frac = float(meta.get("train_frac", 0.8))
    val_frac = float(meta.get("val_frac", 0.1))

    doc = _metrics_doc(params, dataset, seed, train_frac, val_frac)
    rows = _metrics_rows(doc)

    if args.compare_baselines:
        train_idx, _, test_idx = split_indices(len(dataset), train_frac, val_frac, seed)
        for name, idx in (("train", train_idx), ("test", test_idx)):
            if len(idx) == 0:
                raise UserInputError(f"--compare-baselines needs a non-empty {name} split")
        train_samples = [dataset[i] for i in train_idx]
        test_samples = [dataset[i] for i in test_idx]
        bcfg = TrainConfig(
            epochs=args.baseline_epochs or int(meta.get("epochs", 200)),
            seed=seed,
            train_frac=train_frac,
            val_frac=val_frac,
        )
        single, _ = train_single_phase(dataset, bcfg)
        ridge = fit_ridge_globals(train_samples)
        comparison = {
            "two_phase": doc["test"]["total"],
            "single_phase": _as_metric_doc(
                evaluate_baseline_total(
                    predict_single_phase(single, test_samples), test_samples
                )
            ),
            "ridge": _as_metric_doc(
                evaluate_baseline_total(ridge.predict(test_samples), test_samples)
            ),
        }
        doc = {"metrics": doc, "comparison": comparison}
        for scheme in ("two_phase", "single_phase", "ridge"):
            m = comparison[scheme]
            rows.append(("test", scheme, m["mape"], m["eb10"], m["n"]))

    _emit(args, doc, ("split", "phase", "mape", "eb10", "n"), rows)


def _as_metric_doc(m) -> dict:
    return {"mape": m.mape, "eb10": m.eb10, "n": m.n}


def _cmd_embodied(args: argparse.Namespace) -> None:
    bom = _resolve_bom(args.bom)
    if args.llm_components:
        components = [c for c in args.llm_components.split(",") if c]
    else:
        components = [f"die:{u.name}" for u in bom.units] + ["dram"]
    report = soc_embodied(bom, attributable=components)
    rows = sorted(report.per_component.items()) + [("total", report.total)]
    _emit(args, report_to_json(report), ("component", "kg_co2eq"), rows)


def _cmd_whatif(args: argparse.Namespace) -> None:
    scenario = _SCENARIOS[args.scenario]
    bom = _resolve_bom(args.bom)
    dev = _resolve_device(args.device)
    cfg = _resolve_config(args.config)

    base_report = soc_embodied(bom)
    mod_report = soc_embodied(whatif_bom(bom, list(scenario["mods"])))
    modified = scaled_device(
        dev,
        compute_factor=scenario["compute"],
        bandwidth_factor=scenario["bandwidth"],
    )
    prompt_lens = [int(p) for p in args.prompt_lens.split(",") if p]
    series = [
        {
            "prompt_len": n,
            "speedup": whatif_speedup(cfg, Request(n, 1), "prefill", dev, modified),
        }
        for n in prompt_lens
    ]
    doc = {
        "scenario": args.scenario,
        "device": {
            "name": dev.name,
            "compute_factor": scenario["compute"],
            "bandwidth_factor": scenario["bandwidth"],
        },
        "embodied": {
            "base_kg": base_report.total,
            "modified_kg": mod_report.total,
            "increase_pct": 100.0
            * (mod_report.total - base_report.total)
            / base_report.total,
        },
        "prefill_speedup": series,
    }
    rows = [(p["prompt_len"], p["speedup"]) for p in series]
    _emit(args, doc, ("prompt_len", "speedup"), rows)


def _cmd_breakeven(args: argparse.Namespace) -> None:
    table = _ci_table(args) if args.region == "all" else {args.region: _ci_for(args)}
    doc = {}
    for region in sorted(table):
        ci = table[region]
        doc[region] = {
            "ci_kg_per_kwh": ci.kg_per_kwh,
            "requests_per_day": breakeven_requests(
                args.delta_embodied, args.delta_energy, ci, args.lifespan
            ),
        }
    rows = [
        (region, doc[region]["ci_kg_per_kwh"], doc[region]["requests_per_day"])
        for region in sorted(doc, key=lambda r: doc[r]["ci_kg_per_kwh"])
    ]
    _emit(args, doc, ("region", "ci_kg_per_kwh", "requests_per_day"), rows)


def _roof_points(dev) -> list[dict]:
    points = []
    for half_step in range(-8, 29):
        intensity = 2.0 ** (half_step / 2.0)
        points.append(
            {
                "intensity": intensity,
                "perf": min(dev.peak_ops, dev.mem_bandwidth * intensity),
            }
        )
    return points


def _cmd_roofline(args: argparse.Namespace) -> None:
    dev = _resolve_device(args.device)
    cfg = _resolve_config(args.config)
    req = Request(args.prompt_len, args.output_len)
    request = request_kernels(cfg, req)
    kernels = []
    for phase, graph in (("prefill", request.prefill), ("decode", request.decode())):
        for node in graph.nodes:
            kernels.append(
                {
                    "phase": phase,
                    "kind": node.kind,
                    "intensity": node.arithmetic_intensity,
                    "perf": min(
                        dev.peak_ops,
                        dev.mem_bandwidth * node.arithmetic_intensity,
                    ),
                    "boundedness": classify_node(node, dev),
                }
            )
    doc = {
        "device": {
            "name": dev.name,
            "peak_ops": dev.peak_ops,
            "mem_bandwidth": dev.mem_bandwidth,
            "ridge_point": dev.ridge_point,
        },
        "roof": _roof_points(dev),
        "kernels": kernels,
    }
    rows = [("roof", p["intensity"], p["perf"]) for p in doc["roof"]]
    rows += [
        (f"{k['phase']}:{k['kind']}", k["intensity"], k["perf"]) for k in kernels
    ]
    _emit(args, doc, ("series", "intensity", "perf"), rows)


def _cmd_pipeline(args: argparse.Namespace) -> None:
    pipeline = _resolve_pipeline(args.pipeline)
    if args.input == "camera":
        pipeline = dataclasses.replace(
            pipeline,
            input=CameraInput(duration_s=_CAMERA_DURATION_S, frames=_CAMERA_FRAMES),
        )
    if args.output == "speaker":
        pipeline = dataclasses.replace(
            pipeline,
            output=SpeakerOutput(
                duration_s=pipeline.output.duration_s, volume=_SPEAKER_VOLUME
            ),
        )
    models = assets.demo_peripheral_models()
    params = load_params_json(args.params)[0] if args.params else None

    def llm_energy(stage: LlmStage) -> float:
        cfg, req, dev = stage.config, stage.request, stage.device
        if params is None:
            return llm_request_energy(cfg, req, dev)
        return predict_sample(params, featurize(cfg, req, dev))[1]

    breakdown = app_energy(pipeline, models, llm_energy)
    doc = {
        "pipeline": pipeline.name,
        "llm_source": "oracle" if params is None else "predictor",
        "breakdown": breakdown_to_json(breakdown),
    }
    if args.requests_per_day is not None:
        ci = _ci_for(args)
        report = soc_embodied(_resolve_bom(args.bom))
        usage = UsageProfile(args.requests_per_day, args.lifespan)
        fp = total_footprint(report.total, usage, breakdown.total_j, ci)
        doc["footprint"] = {
            "region": ci.region,
            "embodied_kg": fp.embodied_kg,
            "operational_kg": fp.operational_kg,
            "total_kg": fp.total_kg,
        }
    rows = sorted(doc["breakdown"].items())
    _emit(args, doc, ("stage", "energy_j"), rows)


# ---------------------------------------------------------------------------
# Parser


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="output path (default stdout)")

    parser = argparse.ArgumentParser(
        prog="co2meter",
        description="Energy and carbon accounting for LLM apps on edge devices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", parents=[common], help="fit a peripheral model from CSV")
    p.add_argument("model", choices=dm.MODEL_NAMES)
    p.add_argument("csv")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser(
        "estimate", parents=[common], help="roofline energy/time for one request"
    )
    p.add_argument("--config", default="qwen15-05b")
    p.add_argument("--device", default="rk3588")
    p.add_argument("--prompt-len", type=int, required=True)
    p.add_argument("--output-len", type=int, required=True)
    p.add_argument(
        "--breakdown", action="store_true",
        help="add the per-kernel table (JSON key 'kernels'; CSV: one row per kernel)",
    )
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser(
        "dataset", parents=[common], help="generate a synthetic labeled dataset"
    )
    p.add_argument("--configs", default="qwen15-05b")
    p.add_argument("--devices", default="rk3588")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=_finite_float, default=0.05)
    p.add_argument("--regime", choices=("trace", "mixed"), default="trace")
    p.add_argument("--dataset-out", required=True, help="JSONL output path")
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("train", parents=[common], help="train the two-phase predictor")
    p.add_argument("--dataset", required=True)
    p.add_argument("--params-out", required=True)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=_finite_float, default=0.001)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--train-frac", type=_finite_float, default=0.8)
    p.add_argument("--val-frac", type=_finite_float, default=0.1)
    p.add_argument(
        "--history-out", default=None,
        help="JSONL path for one line per tower and epoch (loss, val metrics)",
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", parents=[common], help="evaluate trained parameters")
    p.add_argument("--dataset", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--compare-baselines", action="store_true")
    p.add_argument("--baseline-epochs", type=int, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("embodied", parents=[common], help="embodied carbon of a BOM")
    p.add_argument("--bom", required=True)
    p.add_argument("--llm-components", default=None)
    p.set_defaults(func=_cmd_embodied)

    p = sub.add_parser(
        "whatif", parents=[common], help="hardware scaling scenario analysis"
    )
    p.add_argument("--scenario", choices=sorted(_SCENARIOS), required=True)
    p.add_argument("--bom", default="rk3588")
    p.add_argument("--device", default="rk3588")
    p.add_argument("--config", default="qwen15-05b")
    p.add_argument("--prompt-lens", default="50,100,150")
    p.set_defaults(func=_cmd_whatif)

    p = sub.add_parser(
        "breakeven", parents=[common], help="requests/day to offset embodied carbon"
    )
    p.add_argument("--delta-embodied", type=_finite_float, required=True, help="kg CO2e")
    p.add_argument("--delta-energy", type=_finite_float, required=True, help="J per request")
    p.add_argument("--region", default="all")
    p.add_argument("--ci-table", default=None)
    p.add_argument("--lifespan", type=_finite_float, default=5.0)
    p.set_defaults(func=_cmd_breakeven)

    p = sub.add_parser(
        "roofline", parents=[common], help="device roof plus per-kernel points"
    )
    p.add_argument("--device", default="rk3588")
    p.add_argument("--config", default="qwen15-05b")
    p.add_argument("--prompt-len", type=int, default=100)
    p.add_argument("--output-len", type=int, default=64)
    p.set_defaults(func=_cmd_roofline)

    p = sub.add_parser(
        "pipeline", parents=[common], help="per-stage energy of an app pipeline"
    )
    p.add_argument("--pipeline", default="voice_assistant")
    p.add_argument("--input", choices=("mic", "camera"), default=None)
    p.add_argument("--output", choices=("display", "speaker"), default=None)
    p.add_argument("--params", default=None, help="predictor params (default: oracle)")
    p.add_argument("--requests-per-day", type=_finite_float, default=None)
    p.add_argument("--bom", default="rk3588")
    p.add_argument("--region", default="global")
    p.add_argument("--ci-table", default=None)
    p.add_argument("--lifespan", type=_finite_float, default=5.0)
    p.set_defaults(func=_cmd_pipeline)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args keeps no state in it."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except (UserInputError, NoBreakEvenError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CO2MeterError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
