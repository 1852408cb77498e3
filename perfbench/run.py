"""Run one co2meter benchmark workload and print its metrics.

    python3 perfbench/run.py --workload estimate_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.

Set-up time is the wall time from starting a fresh worker process to the
worker reporting READY (imports, asset loading, input generation).  It is
taken in five fresh processes, two before the measured worker, the measured
worker itself and two after it, and the median is reported, so that one
stall on a shared machine does not move it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("cli_cold", "estimate_sweep", "train_eval")
SETUPS_BEFORE, SETUPS_AFTER = 2, 2
WORKER_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def run_worker(args, scratch: Path, setup_only: bool) -> tuple[float, dict | None]:
    """Start a worker; return (seconds to READY, its result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", str(scratch),
           "--trace-out", str(OUT / "trace" / f"{args.workload}-seed{args.seed}.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker timed out")
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, (None if setup_only else json.loads(lines[-1]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "co2meter" / "cli.py").is_file():
        print(f"perfbench: no co2meter source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = OUT / f"run-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for i in range(SETUPS_BEFORE):
                setups.append(run_worker(args, scratch / f"setup{i}", True)[0])
        setup_s, result = run_worker(args, scratch / "main", False)
        setups.append(setup_s)
        if not args.trace:
            for i in range(SETUPS_AFTER):
                setups.append(run_worker(args, scratch / f"setup{SETUPS_BEFORE + i}", True)[0])
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        units = dict(PER_LAYER)
    else:
        units = dict(END_TO_END)
        result["metrics"]["setup_s"] = statistics.median(setups)
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
