"""The three workloads: inputs made from the seed, the ops, and their checks.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  A run attempts whole rounds; round r of a seed
is always the same list of ops.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from checks import Mismatch, check_fit, check_pipeline, check_training, compare

CONFIGS = ("qwen15-05b", "tinyllama-11b", "internlm2-18b")
DEVICES = ("rk3568", "rk3588", "orin_nx", "agx_orin")
FIT_MODELS = ("net", "camera", "mic", "video", "speaker", "display")
NPU_BOARDS = ("rk3568", "rk3588")  # boards whose BOM has the unit rk-npu scales

# train_eval: dataset and training sizes.  Big enough that ten epochs beat a
# constant predictor by far on every seed, small enough that one op is ~2 s.
DATASET_DEVICES = ("rk3588", "orin_nx")
DATASET_SIZE = 200
TRAIN_FRAC, VAL_FRAC = 0.7, 0.1
EPOCHS = 10
MAX_MAPE_SHARE = 0.5  # held-out MAPE must be at most half the constant guess's


class OpFailed(RuntimeError):
    pass


@dataclass
class Context:
    root: Path  # checkout root
    seed: int
    scratch: Path  # this process's scratch directory
    tracer: object

    @property
    def assets(self) -> ref.Assets:
        return ref.Assets(self.root / "src" / "co2meter" / "assets")

    def child_env(self) -> dict:
        return dict(os.environ, PYTHONPATH=str(self.root / "src"))


@dataclass
class Op:
    kind: str
    argv: list[str]
    work: float
    check: Callable[[object], None] | None
    request: tuple | None = None  # (config, device, prompt_len, output_len)


def _log_uniform(rng: np.random.Generator, lo: float, hi: float, u: float | None = None) -> int:
    u = rng.random() if u is None else u
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def _pick(rng: np.random.Generator, options):
    return options[int(rng.integers(len(options)))]


# ---------------------------------------------------------------------------
# The CLI cycle (cli_cold ops; also the in-process CLI probes of traced runs)


def cli_cycle(seed: int, r: int, assets: ref.Assets) -> list[Op]:
    """Round r of the CLI cycle: six fits, then eight other invocations, shuffled."""
    rng = np.random.default_rng([seed, 1, r])
    truth = assets.truth()
    ops = [
        Op("fit", ["fit", m, str(assets.csv(m))], 1,
           functools.partial(check_fit, model=m, truth=truth, csv_path=assets.csv(m)))
        for m in FIT_MODELS
    ]

    cfg, dev = _pick(rng, CONFIGS), _pick(rng, DEVICES)
    p, o = _log_uniform(rng, 16, 256), _log_uniform(rng, 8, 64)
    ops.append(Op("estimate", ["estimate", "--config", cfg, "--device", dev,
                               "--prompt-len", str(p), "--output-len", str(o)], 1,
                  _expect(ref.estimate_doc(assets.config(cfg), assets.device(dev), p, o)),
                  request=(cfg, dev, p, o)))

    board = _pick(rng, DEVICES)
    ops.append(Op("embodied", ["embodied", "--bom", board], 1,
                  _expect(ref.embodied(assets.bom(board)))))

    scenario = _pick(rng, sorted(ref.SCENARIOS))
    board, cfg = _pick(rng, NPU_BOARDS), _pick(rng, CONFIGS)
    lens = sorted({_log_uniform(rng, 16, 512) for _ in range(3)})
    ops.append(Op("whatif", ["whatif", "--scenario", scenario, "--bom", board, "--device", board,
                             "--config", cfg, "--prompt-lens", ",".join(map(str, lens))], 1,
                  _expect(ref.whatif_doc(scenario, assets.bom(board), assets.device(board),
                                         assets.config(cfg), lens))))

    d_kg, d_j, life = (float(f"{x:.3f}") for x in
                       (rng.uniform(0.1, 5.0), rng.uniform(1.0, 500.0), rng.uniform(1.0, 10.0)))
    ops.append(Op("breakeven", ["breakeven", "--delta-embodied", repr(d_kg),
                                "--delta-energy", repr(d_j), "--lifespan", repr(life)], 1,
                  _expect(ref.breakeven_doc(d_kg, d_j, assets.ci_table(), life))))

    cfg, dev = _pick(rng, CONFIGS), _pick(rng, DEVICES)
    p, o = _log_uniform(rng, 16, 1024), _log_uniform(rng, 8, 256)
    ops.append(Op("roofline", ["roofline", "--device", dev, "--config", cfg,
                               "--prompt-len", str(p), "--output-len", str(o)], 1,
                  _expect(ref.roofline_doc(assets.config(cfg), assets.device(dev), p, o)),
                  request=(cfg, dev, p, o)))

    plain = ref.pipeline_doc(assets)
    ops.append(Op("pipeline", ["pipeline"], 1,
                  functools.partial(check_pipeline, expected=plain)))
    rpd, life = float(f"{rng.uniform(1.0, 1000.0):.2f}"), float(f"{rng.uniform(1.0, 10.0):.2f}")
    region, board = _pick(rng, sorted(assets.ci_table())), _pick(rng, DEVICES)
    ops.append(Op("pipeline", ["pipeline", "--requests-per-day", repr(rpd), "--region", region,
                               "--bom", board, "--lifespan", repr(life)], 1,
                  functools.partial(check_pipeline, expected=ref.pipeline_doc(
                      assets, footprint=(rpd, region, board, life)))))
    return [ops[i] for i in rng.permutation(len(ops))]


def _expect(expected: dict) -> Callable[[dict], None]:
    return functools.partial(compare, expected=expected)


def pipeline_request(assets: ref.Assets) -> tuple:
    llm = assets.pipeline("voice_assistant")["llm"]
    return (llm["config"], llm["device"], llm["prompt_len"], llm["output_len"])


# ---------------------------------------------------------------------------
# Workloads


class CliCold:
    """Each op is one fresh `python -m co2meter.cli` process."""

    in_process = False

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        self.assets = self.ctx.assets
        # Warm the page and bytecode caches as any earlier use would, with an
        # op whose cost does not depend on the seed.
        self.run(next(op for op in self.round(0) if op.kind == "breakeven"))

    def round(self, r: int) -> list[Op]:
        return cli_cycle(self.ctx.seed, r, self.assets)

    def run(self, op: Op) -> dict:
        with self.ctx.tracer.span("cli.process"):
            proc = subprocess.run([sys.executable, "-m", "co2meter.cli", *op.argv],
                                  capture_output=True, text=True, env=self.ctx.child_env(),
                                  cwd=self.ctx.scratch)
        if proc.returncode != 0:
            raise OpFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return json.loads(proc.stdout)

    def check(self, op: Op, doc: dict) -> None:
        op.check(doc)

    def requests(self) -> list[tuple]:
        reqs = [op.request for op in self.round(0) if op.request]
        return reqs + [pipeline_request(self.assets)]


class EstimateSweep:
    """Each op is one in-process `co2meter.cli.main(["estimate", ...])`."""

    in_process = True

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        from co2meter import cli

        self.main = cli.main
        self.assets = self.ctx.assets
        self.configs = {n: self.assets.config(n) for n in CONFIGS}
        self.devices = {n: self.assets.device(n) for n in DEVICES}
        self.out = self.ctx.scratch / "estimate.json"
        self.run(Op("estimate", ["estimate", "--prompt-len", "16", "--output-len", "16"], 16, None))
        self.out.unlink()

    def round(self, r: int) -> list[Op]:
        """All 12 config x device pairs; lengths log-uniform, one per 1/12 stratum."""
        rng = np.random.default_rng([self.ctx.seed, 2, r])
        pairs = [(c, d) for c in CONFIGS for d in DEVICES]
        n = len(pairs)
        p_strata, o_strata = rng.permutation(n), rng.permutation(n)
        ops = []
        for i in rng.permutation(n):
            cfg, dev = pairs[i]
            p = _log_uniform(rng, 16, 2048, (p_strata[i] + rng.random()) / n)
            o = _log_uniform(rng, 16, 4096, (o_strata[i] + rng.random()) / n)
            if not ref.fits_in_dram(self.configs[cfg], self.devices[dev], p, o):
                raise ValueError(f"request {cfg}/{dev} {p}+{o} does not fit in DRAM")
            ops.append(Op("estimate", ["estimate", "--config", cfg, "--device", dev,
                                       "--prompt-len", str(p), "--output-len", str(o)],
                          o, None, request=(cfg, dev, p, o)))
        return ops

    def run(self, op: Op) -> None:
        with self.ctx.tracer.span("cli.main"):
            code = self.main([*op.argv, "--out", str(self.out)])
        if code != 0:
            raise OpFailed(f"estimate exited {code}")

    def check(self, op: Op, _) -> None:
        doc = json.loads(self.out.read_text())
        # Every op writes a new file: rewriting one in place makes ext4 flush
        # it on close, which would time the shared disk, not the program.
        self.out.unlink()
        cfg, dev, p, o = op.request
        compare(doc, ref.estimate_doc(self.configs[cfg], self.devices[dev], p, o))

    def requests(self) -> list[tuple]:
        return [op.request for op in self.round(0)]


class TrainEval:
    """Set-up makes a seeded dataset and round-trips it through JSONL; each op
    trains both towers, evaluates the held-out split and round-trips the params."""

    in_process = True

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        from co2meter import assets
        from co2meter import predictor as pr

        self.pr = pr
        tr = self.ctx.tracer
        configs = [assets.load_llm_config(n) for n in CONFIGS]
        devices = [assets.load_device(n) for n in DATASET_DEVICES]
        with tr.span("oracle.gen_oracle_dataset"):
            made = pr.gen_oracle_dataset(configs, devices, DATASET_SIZE, seed=self.ctx.seed,
                                         request_sampler=pr.sample_trace_request)
        path = self.ctx.scratch / "dataset.jsonl"
        with tr.span("data.write_dataset_jsonl", n=DATASET_SIZE):
            pr.write_dataset_jsonl(path, made)
        with tr.span("data.read_dataset_jsonl", n=DATASET_SIZE):
            self.dataset = pr.read_dataset_jsonl(path)
        tr.count("data.jsonl_bytes", path.stat().st_size)
        self.roundtrip_exact = self.dataset == made  # checked with every op
        self.train_cfg = pr.TrainConfig(epochs=EPOCHS, seed=self.ctx.seed,
                                        train_frac=TRAIN_FRAC, val_frac=VAL_FRAC)
        train_idx, _, test_idx = pr.split_indices(len(self.dataset), TRAIN_FRAC, VAL_FRAC,
                                                  self.ctx.seed)
        self.n_train = len(train_idx)
        self.test = [self.dataset[i] for i in test_idx]
        train = [self.dataset[i] for i in train_idx]
        self.baseline_mape = {
            "prefill": ref.geomean_mape([s.label_prefill_j for s in train],
                                        [s.label_prefill_j for s in self.test]),
            "total": ref.geomean_mape([s.label_total_j for s in train],
                                      [s.label_total_j for s in self.test]),
        }
        self.params_path = self.ctx.scratch / "params.json"
        self.first_params: bytes | None = None

    def round(self, r: int) -> list[Op]:
        return [Op("train_eval", [], self.n_train * EPOCHS * 2, None)]

    def run(self, op: Op):
        pr, tr = self.pr, self.ctx.tracer
        with tr.span("training.train"):
            params, history = pr.train(self.dataset, self.train_cfg)
        with tr.span("training.evaluate_params"):
            metrics = pr.evaluate_params(params, self.test)
        with tr.span("gnn.save_params_json"):
            pr.save_params_json(self.params_path, params)
        with tr.span("gnn.load_params_json"):
            loaded, _ = pr.load_params_json(self.params_path)
        return params, history, metrics, loaded

    def check(self, op: Op, result) -> None:
        params, history, metrics, loaded = result
        self.params = params
        saved = self.params_path.read_bytes()
        self.params_path.unlink()  # a new file per op, as for estimate_sweep
        if not self.roundtrip_exact:
            raise Mismatch("dataset changed in its JSONL round trip")
        check_training(history, metrics, self.baseline_mape, MAX_MAPE_SHARE)
        if self.first_params is None:
            self.first_params = saved
        elif saved != self.first_params:
            raise Mismatch("same seed, different params bytes")
        if self.pr.params_to_json(loaded) != self.pr.params_to_json(params):
            raise Mismatch("params changed in their JSON round trip")

    def requests(self) -> list[tuple]:
        """The first dozen dataset requests, named by their asset files."""
        by_shape = {}
        for name in CONFIGS:
            c = self.ctx.assets.config(name)
            by_shape[(c["num_layers"], c["hidden_dim"], c["ffn_dim"])] = name
        out = []
        for s in self.dataset[:12]:
            g = s.total_globals
            out.append((by_shape[(g.layer_count, g.hidden_dim, g.ffn_dim)], s.device_id,
                        g.prompt_len, g.output_len))
        return out


WORKLOADS = {"cli_cold": CliCold, "estimate_sweep": EstimateSweep, "train_eval": TrainEval}
