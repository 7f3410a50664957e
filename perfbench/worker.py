"""One workload in a fresh interpreter: set up, signal ready, run timed passes.

Started by run.py, never by hand.  Prints one JSON object on its last
stdout line: the monotonic time at which set-up finished, every pass's
laps, CPU and (when traced) per-layer metrics, check outcomes, peak RSS
and the library versions it ran against.  CLOCK_MONOTONIC is system-wide
on Linux, so the parent turns "ready" into set-up time by subtracting the
moment it started this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy
import scipy

import workloads
from metrics import layer_metrics
from tracer import Tracer, instrument, summarize, uninstrument

IMPORT_PROBES = 3
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--budget", type=float, required=True,
                    help="seconds after which no new pass starts")
    ap.add_argument("--state-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)[args.workload]

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(args.state_dir, "tmp"))
    try:
        ctx = workloads.Context(workdir, expected)
        wl = workloads.WORKLOADS[args.workload](ROOT)
        wl.setup(ctx, args.seed)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        result = run(args, ctx, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["ready"] = ready
    print(json.dumps(result))
    return 0


def run(args, ctx: workloads.Context, wl) -> dict:
    tracer = Tracer() if args.trace else None
    import_s = 0.0
    if args.trace:
        import_s = statistics.median(workloads.import_probe(ROOT) for _ in range(IMPORT_PROBES))
    started = time.monotonic()

    passes = []
    crashed = 0
    for index in range(workloads.MAX_PASSES):
        # Trace runs alternate untraced and traced passes; the difference of
        # their pass times is the tracing overhead.
        traced = bool(args.trace) and index % 2 == 1
        undo = []
        if traced:
            tracer.pass_index = index
            undo = instrument(tracer, workloads.library_namespaces(), workloads.library_calls())
        try:
            pass_dir = ctx.begin_pass(index, tracer if traced else None)
            wl.run_pass(ctx, pass_dir)
        except Exception:
            ctx.check("pass", False, traceback.format_exc(limit=4))
            crashed = len(ctx.laps) + 1
            break
        finally:
            uninstrument(undo)
            shutil.rmtree(os.path.join(ctx.workdir, f"pass{index}"), ignore_errors=True)
        wall = sum(lap[1] for lap in ctx.laps)
        cpu = sum(lap[2] for lap in ctx.laps)
        rec = {"index": index, "traced": traced, "wall": wall, "cpu": cpu,
               "ops": [[op, dt] for op, dt, _ in ctx.laps]}
        if traced:
            rec["layers"] = layer_metrics(summarize(tracer.spans, index), wall, cpu)
            rec["layers"]["cli.import_s"] = import_s
        passes.append(rec)
        # Start another pass only if it should end by --seconds, give or take
        # half a pass; traced runs need at least one pass of each kind.
        elapsed = time.monotonic() - started
        mean_pass = elapsed / len(passes)
        enough = elapsed + 0.5 * mean_pass >= args.seconds
        if (enough and (not args.trace or len(passes) >= 2)) or elapsed + 1.5 * mean_pass > args.budget:
            break

    wl.finish(ctx)
    if tracer is not None:
        tracer.write(os.path.join(args.state_dir, f"trace-{args.workload}-seed{args.seed}.json"))

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    attempted = sum(len(p["ops"]) for p in passes) + len(ctx.extra_ops) + crashed
    return {
        "passes": passes,
        "attempted": attempted,
        "failed": len(ctx.failed),
        "failures": ctx.failures[:20],
        "peak_rss_kb": max(own, kids),
        "cmd_unit": wl.cmd_unit,
        "sizes": wl.sizes(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "segment_size": workloads.sieve.DEFAULT_SEGMENT_FLAGS,
        },
    }


if __name__ == "__main__":
    sys.exit(main())
