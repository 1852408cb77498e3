"""Command-line surface tying the modules together.

Subcommands: fit, estimate, dataset, train, eval, embodied, whatif,
breakeven, roofline, pipeline.  The flags `--format` and `--out` apply to
every subcommand; `--seed` only to dataset, train and eval, which read it.

Each subcommand imports only the modules it runs, inside its own function:
a cold `fit` loads `device_models`, `estimate` and `roofline` load
`workload`, `embodied` loads `embodied`, `whatif` loads `workload` and
`embodied`, `breakeven` loads `accounting`, and `pipeline` loads all of them.
The predictor, and with it numpy, is imported only by dataset, train, eval
and pipeline --params.  No subcommand loads `dataclasses` (nor `inspect`
through it): the value classes derive from `errors.Record`, which generates
no code.

Every command is deterministic given its arguments: seeds are explicit
(default 42), emitted artifacts carry no timestamps, and JSON keys are
sorted, so identical invocations produce byte-identical output.  Exit codes:
0 success, 2 user-input error (malformed files, unknown names, invalid
values), 1 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Sequence

from . import assets
from .errors import CO2MeterError, NoBreakEvenError, UserInputError, replace

_SPLIT_ORDER = ("train", "val", "test")

# What-if scenarios pair a device scaling with the BOM change that pays for
# it: rk-mem quadruples the memory system (DRAM footprint set to `dram_kg`),
# rk-npu also scales the NPU die area 8x (`scale_units`: unit, factor).
_SCENARIOS = {
    "rk-mem": {"compute": 1.0, "bandwidth": 4.0, "dram_kg": 1.68, "scale_units": ()},
    "rk-npu": {"compute": 8.0, "bandwidth": 4.0, "dram_kg": 1.68,
               "scale_units": (("npu", 8.0),)},
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
    lines = [",".join(header), *(",".join(_csv_cell(c) for c in row) for row in rows)]
    return "\n".join(lines) + "\n"


def _emit(args: argparse.Namespace, doc: dict, header, rows) -> None:
    if args.format == "csv":
        text = _render_csv(header, rows)
    else:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "wb") as fh:  # one buffered write, no text-mode layer
            fh.write(text.encode())
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
# Subcommands


def _ci_for(args: argparse.Namespace):
    table = assets.load_carbon_intensities(args.ci_table)
    if args.region not in table:
        raise UserInputError(f"unknown region {args.region!r}; have {sorted(table)}")
    return table[args.region]


def _cmd_fit(args: argparse.Namespace) -> None:
    from . import device_models as dm
    if args.model not in dm.MODEL_NAMES:
        raise UserInputError(f"unknown model name {args.model!r}; have {list(dm.MODEL_NAMES)}")
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


def _cmd_estimate(args: argparse.Namespace) -> None:
    from . import workload as wl
    cfg = assets.load_llm_config(args.config)
    dev = assets.load_device(args.device)
    req = _request(args)
    rows = wl.kernel_costs(cfg, req, dev)
    (prefill_s, prefill_j), (decode_s, decode_j) = wl.phase_totals(rows)
    # Summed over layers: the layer count cancels in the correctly rounded
    # int division, so this is the layer's `layer_intensity`.
    prefill_rows = rows[:len(wl.LAYER_KINDS)]
    prefill = sum(r.flops for r in prefill_rows) / sum(r.bytes for r in prefill_rows)
    mid = wl.decode_intensity(cfg, req.prompt_len + req.output_len // 2)

    doc = {
        "config": cfg.name,
        "device": dev.name,
        "prompt_len": req.prompt_len,
        "output_len": req.output_len,
        "prefill": {
            "energy_j": prefill_j,
            "time_s": prefill_s,
            "intensity": prefill,
            "boundedness": wl.boundedness(prefill, dev),
        },
        "decode": {
            "energy_j": decode_j,
            "time_s": decode_s,
            "intensity_mid": mid,
            "boundedness_mid": wl.boundedness(mid, dev),
        },
        "total_energy_j": prefill_j + decode_j,
    }
    if not args.breakdown:
        _emit(args, doc, ("key", "value"), _flat_rows(doc) if args.format == "csv" else ())
        return
    doc["kernels"] = [r._asdict() for r in rows]
    _emit(args, doc, wl.KernelCost._fields, rows)


def _cmd_dataset(args: argparse.Namespace) -> None:
    from . import predictor as pr
    configs = [assets.load_llm_config(n) for n in args.configs.split(",") if n]
    devices = [assets.load_device(n) for n in args.devices.split(",") if n]
    sampler = (
        pr.sample_regime_mixed_request if args.regime == "mixed"
        else pr.sample_trace_request
    )
    samples = pr.gen_oracle_dataset(
        configs,
        devices,
        args.n,
        noise_sigma=args.sigma,
        seed=args.seed,
        request_sampler=sampler,
    )
    pr.write_dataset_jsonl(args.dataset_out, samples)
    doc = {"n": len(samples), "path": args.dataset_out}
    _emit(args, doc, ("key", "value"), _flat_rows(doc))


def _metrics_doc(params, table, seed, train_frac, val_frac) -> dict:
    """Metrics per non-empty split of a dataset's `sample_table`."""
    from . import predictor as pr
    split = pr.split_indices(len(table["prefill_graph"]), train_frac, val_frac, seed)
    doc = {}
    for name, idx in zip(_SPLIT_ORDER, split):
        if len(idx) == 0:
            continue
        metrics = pr.evaluate_params(params, pr.table_rows(table, idx))
        doc[name] = {phase: _as_metric_doc(m) for phase, m in metrics.items()}
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
    from . import predictor as pr
    dataset = pr.read_dataset_jsonl(args.dataset)
    cfg = pr.TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        seed=args.seed,
        train_frac=args.train_frac,
        val_frac=args.val_frac,
    )
    table = pr.sample_table(dataset)
    params, history = pr.train(table, cfg)
    if args.history_out:
        with open(args.history_out, "w") as fh:
            for entry in history:
                fh.write(json.dumps(entry, sort_keys=True, allow_nan=False) + "\n")
    meta = {**{name: getattr(cfg, name) for name in cfg._fields}, "n_samples": len(dataset)}
    pr.save_params_json(args.params_out, params, meta=meta)
    doc = _metrics_doc(params, table, cfg.seed, cfg.train_frac, cfg.val_frac)
    _emit(args, doc, ("split", "phase", "mape", "eb10", "n"), _metrics_rows(doc))


def _cmd_eval(args: argparse.Namespace) -> None:
    if args.baseline_epochs is not None and not args.compare_baselines:
        raise UserInputError("--baseline-epochs applies only with --compare-baselines")
    from . import predictor as pr
    dataset = pr.read_dataset_jsonl(args.dataset)
    params, meta = pr.load_params_json(args.params)
    # load_params_json checked their types: seed and epochs are integers
    seed = meta.get("seed", args.seed)
    default = pr.TrainConfig()
    train_frac = float(meta.get("train_frac", default.train_frac))
    val_frac = float(meta.get("val_frac", default.val_frac))

    table = pr.sample_table(dataset)
    doc = _metrics_doc(params, table, seed, train_frac, val_frac)
    rows = _metrics_rows(doc)

    if args.compare_baselines:
        train_idx, _, test_idx = pr.split_indices(len(dataset), train_frac, val_frac, seed)
        for name, idx in (("train", train_idx), ("test", test_idx)):
            if len(idx) == 0:
                raise UserInputError(f"--compare-baselines needs a non-empty {name} split")
        train, test = (pr.table_rows(table, idx) for idx in (train_idx, test_idx))
        epochs = args.baseline_epochs
        bcfg = pr.TrainConfig(
            epochs=meta.get("epochs", default.epochs) if epochs is None else epochs,
            seed=seed,
            train_frac=train_frac,
            val_frac=val_frac,
        )
        single, _ = pr.train_single_phase(table, bcfg)
        ridge = pr.fit_ridge_globals(train)
        comparison = {
            "two_phase": doc["test"]["total"],
            "single_phase": _as_metric_doc(
                pr.evaluate_baseline_total(pr.predict_single_phase(single, test), test)
            ),
            "ridge": _as_metric_doc(pr.evaluate_baseline_total(ridge.predict(test), test)),
        }
        doc = {"metrics": doc, "comparison": comparison}
        for scheme in ("two_phase", "single_phase", "ridge"):
            m = comparison[scheme]
            rows.append(("test", scheme, m["mape"], m["eb10"], m["n"]))

    _emit(args, doc, ("split", "phase", "mape", "eb10", "n"), rows)


def _as_metric_doc(m) -> dict:
    return {"mape": m.mape, "eb10": m.eb10, "n": m.n}


def _cmd_embodied(args: argparse.Namespace) -> None:
    from .embodied import report_to_json, soc_embodied
    bom = assets.load_bom(args.bom)
    if args.llm_components:
        components = [c for c in args.llm_components.split(",") if c]
    else:
        components = [f"die:{u.name}" for u in bom.units] + ["dram"]
    report = soc_embodied(bom, attributable=components)
    rows = sorted(report.per_component.items()) + [("total", report.total)]
    _emit(args, report_to_json(report), ("component", "kg_co2eq"), rows)


def _prompt_len(entry: str) -> int:
    try:
        value = int(entry)
    except ValueError:
        raise UserInputError(f"--prompt-lens entry {entry!r} is not an integer") from None
    if value < 1:
        raise UserInputError(f"--prompt-lens entry {entry!r} must be >= 1")
    return value


def _request(args: argparse.Namespace):
    """--prompt-len and --output-len as a request, refusing a length below 1 by its flag."""
    from .workload import Request
    for flag, value in (("--prompt-len", args.prompt_len), ("--output-len", args.output_len)):
        if value < 1:
            raise UserInputError(f"{flag} {value} must be >= 1")
    return Request(args.prompt_len, args.output_len)


def _cmd_whatif(args: argparse.Namespace) -> None:
    from .embodied import ScaleUnit, SetDram, soc_embodied, whatif_bom
    from .workload import Request, scaled_device, whatif_speedup
    scenario = _SCENARIOS[args.scenario]
    prompt_lens = [_prompt_len(p) for p in args.prompt_lens.split(",") if p]
    if not prompt_lens:
        raise UserInputError(f"--prompt-lens {args.prompt_lens!r} names no prompt length")
    bom = assets.load_bom(args.bom)
    dev = assets.load_device(args.device)
    cfg = assets.load_llm_config(args.config)

    mods = [SetDram(scenario["dram_kg"])]
    mods += [ScaleUnit(unit, factor) for unit, factor in scenario["scale_units"]]
    base_report = soc_embodied(bom)
    mod_report = soc_embodied(whatif_bom(bom, mods))
    modified = scaled_device(
        dev,
        compute_factor=scenario["compute"],
        bandwidth_factor=scenario["bandwidth"],
    )
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
    from .accounting import breakeven_requests
    table = ({args.region: _ci_for(args)} if args.region != "all"
             else assets.load_carbon_intensities(args.ci_table))
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
    intensities = (2.0 ** (half_step / 2.0) for half_step in range(-8, 29))
    return [{"intensity": i, "perf": min(dev.peak_ops, dev.mem_bandwidth * i)}
            for i in intensities]


def _cmd_roofline(args: argparse.Namespace) -> None:
    from . import workload as wl
    dev = assets.load_device(args.device)
    cfg = assets.load_llm_config(args.config)
    req = _request(args)
    wl.check_fits(cfg, req, dev)
    kernels = []
    for phase in ("prefill", "decode"):
        for kind, row in zip(wl.LAYER_KINDS, wl.layer_rows(cfg, req, phase)):
            intensity = wl.kernel_intensity(row[0], sum(row[1:]))
            kernels.append({"phase": phase, "kind": kind, "intensity": intensity,
                            "perf": min(dev.peak_ops, dev.mem_bandwidth * intensity),
                            "boundedness": wl.boundedness(intensity, dev)})
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
    rows += [(f"{k['phase']}:{k['kind']}", k["intensity"], k["perf"]) for k in kernels]
    _emit(args, doc, ("series", "intensity", "perf"), rows)


def _cmd_pipeline(args: argparse.Namespace) -> None:
    from .accounting import (
        CameraInput,
        LlmStage,
        SpeakerOutput,
        UsageProfile,
        app_energy,
        breakdown_to_json,
        required_models,
        total_footprint,
    )
    from .embodied import soc_embodied
    from .workload import request_energy
    pipeline = assets.load_demo_pipeline(args.pipeline)
    # A camera or speaker pipeline has no mic sample count or display grey
    # level, so --input mic and --output display can only keep a stage.
    if args.input == "mic" and isinstance(pipeline.input, CameraInput):
        raise UserInputError(f"--input mic: pipeline {pipeline.name!r} has a camera")
    if args.output == "display" and isinstance(pipeline.output, SpeakerOutput):
        raise UserInputError(f"--output display: pipeline {pipeline.name!r} has a speaker")
    if args.input == "camera":
        pipeline = replace(
            pipeline,
            input=CameraInput(duration_s=_CAMERA_DURATION_S, frames=_CAMERA_FRAMES),
        )
    if args.output == "speaker":
        pipeline = replace(
            pipeline,
            output=SpeakerOutput(
                duration_s=pipeline.output.duration_s, volume=_SPEAKER_VOLUME
            ),
        )
    models = assets.demo_peripheral_models(required_models(pipeline))
    if args.params:
        from . import predictor as pr
        params = pr.load_params_json(args.params)[0]

    def llm_energy(stage: LlmStage) -> float:
        cfg, req, dev = stage.config, stage.request, stage.device
        if not args.params:
            return sum(request_energy(cfg, req, dev))
        return pr.predict_sample(params, pr.featurize(cfg, req, dev))[1]

    breakdown = app_energy(pipeline, models, llm_energy)
    doc = {
        "pipeline": pipeline.name,
        "llm_source": "predictor" if args.params else "oracle",
        "breakdown": breakdown_to_json(breakdown),
    }
    if args.requests_per_day is not None:
        ci = _ci_for(args)
        report = soc_embodied(assets.load_bom(args.bom))
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
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=42)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="output path (default stdout)")

    parser = argparse.ArgumentParser(
        prog="co2meter",
        description="Energy and carbon accounting for LLM apps on edge devices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", parents=[common], help="fit a peripheral model from CSV")
    p.add_argument("model", help="peripheral model name")
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
        "dataset", parents=[seed, common], help="generate a synthetic labeled dataset"
    )
    p.add_argument("--configs", default="qwen15-05b")
    p.add_argument("--devices", default="rk3588")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=_finite_float, default=0.05)
    p.add_argument("--regime", choices=("trace", "mixed"), default="trace")
    p.add_argument("--dataset-out", required=True, help="JSONL output path")
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("train", parents=[seed, common], help="train the two-phase predictor")
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

    p = sub.add_parser("eval", parents=[seed, common], help="evaluate trained parameters")
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
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers, built once; parsing keeps no state in them."""
    parser = build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return parser, sub.choices


def _parse(argv: Sequence[str] | None) -> argparse.Namespace:
    """`build_parser().parse_args(argv)` less `command`, in one pass: argv led
    by a subcommand goes straight to that subcommand's parser."""
    parser, subcommands = _parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in subcommands:
        return parser.parse_args(argv)
    args, extra = subcommands[argv[0]].parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(argv)
    try:
        args.func(args)
    except (UserInputError, NoBreakEvenError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CO2MeterError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
