"""One benchmark process: set-up, the timed loop and, when traced, the probes.

run.py starts this file; it prints READY once set-up is done and one JSON
object as its last line.  With --setup-only it stops after READY.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
from spans import NullTracer, Tracer
from workloads import WORKLOADS, Context


def timed_loop(wl, seconds: float, tracer: Tracer | None = None) -> list[dict]:
    """Whole rounds of ops, one op at a time, until `seconds` have passed.

    With a tracer every round runs twice, untraced and traced, in alternating
    order, so both sets of ops see the same machine; returns one tally per mode.
    """
    modes = [NullTracer()] + ([tracer] if tracer else [])
    tallies = [{"durations": [], "work": 0.0, "failed": 0, "correct": True} for _ in modes]
    start, r = time.perf_counter(), 0
    while r == 0 or time.perf_counter() - start < seconds:
        for i in (range(len(modes)) if r % 2 == 0 else reversed(range(len(modes)))):
            wl.ctx.tracer, tally = modes[i], tallies[i]
            for op in wl.round(r):
                _run_op(wl, op, tally)
        r += 1
    for tally in tallies:
        tally["attempted"] = len(tally["durations"]) + tally["failed"]
    return tallies


def _run_op(wl, op, tally: dict) -> None:
    try:
        with wl.ctx.tracer.span(f"op:{op.kind}"):
            t0 = time.perf_counter()
            result = wl.run(op)
            t1 = time.perf_counter()
    except Exception:
        tally["failed"] += 1
        traceback.print_exc()
        return
    tally["durations"].append(t1 - t0)
    tally["work"] += op.work
    try:
        wl.check(op, result)
    except Exception as exc:  # any fault in a check is a wrong output
        tally["correct"] = False
        print(f"check failed: {op.kind} {op.argv}: {exc!r}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = Tracer() if args.trace else NullTracer()
    args.scratch.mkdir(parents=True, exist_ok=True)
    ctx = Context(root=Path(__file__).resolve().parent.parent, seed=args.seed,
                  scratch=args.scratch, tracer=tracer)
    wl = WORKLOADS[args.workload](ctx)
    with tracer.span("setup"):
        wl.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tallies = timed_loop(wl, args.seconds, tracer if args.trace else None)
    plain = tallies[0]
    if args.trace:
        wl.ctx.tracer = tracer
        overhead = 100.0 * (sum(tallies[1]["durations"]) / sum(plain["durations"]) - 1.0)
        tallies[1]["correct"] &= layers.probe(wl, ctx)
        metrics = layers.derive(tracer, overhead)
        tracer.write(args.trace_out)
    else:
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        metrics = {
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "op_p50_s": statistics.median(plain["durations"]),
            "work_per_s": plain["work"] / sum(plain["durations"]),
        }
    print(json.dumps({
        "correct": all(t["correct"] for t in tallies),
        "attempted": sum(t["attempted"] for t in tallies),
        "failed": sum(t["failed"] for t in tallies),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
