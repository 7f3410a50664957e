#!/usr/bin/env python3
"""twinsep benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py                      # all workloads, end-to-end table
    python3 perfbench/run.py --trace 1            # all workloads, per-layer table
    python3 perfbench/run.py --workload desk-1e9 --seed 3 --seconds 20 --trace 0

Run from the root of a twinsep source tree; the package is imported from
./src.  Each workload runs in its own fresh interpreter (worker.py), so
peak RSS and import cost belong to that workload alone.  set-up time is
the median of SETUP_REPEATS fresh interpreters that import the package,
generate the workload's inputs and make its temp dir.  With --trace 0 the
end-to-end metrics are printed, with --trace 1 the per-layer metrics from
traced passes.  Every output is checked (published counts, pinned bytes,
model properties); a mismatch is counted in `failed` and the exit status
is 1.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Everything written goes under ./.perfbench.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER, UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ["cli-walk-1e8", "desk-1e9", "mc-gof"]
SETUP_REPEATS = 5
RUN_BUDGET_S = 150  # a single-workload run must finish well inside 180 s
WORKER_TIMEOUT_S = 170


def git_state() -> dict:
    """Commit and dirty flag of ROOT, or "unknown" outside a git checkout."""
    # Look no further than ROOT, and read no user or system git config.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)

    def git(*argv):
        try:
            out = subprocess.run(["git", "-C", ROOT, *argv], env=env, capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout if out.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    if commit is None:
        return {"git_commit": "unknown", "git_dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_commit": commit.strip(), "git_dirty": bool(status and status.strip())}


def spawn_worker(workload, seed, seconds, trace, budget, setup_only=False) -> dict:
    """Run worker.py in a fresh interpreter; return its result plus set-up seconds."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--budget", str(budget), "--state-dir", STATE_DIR]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               TMPDIR=os.path.join(STATE_DIR, "tmp"))
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{workload} worker timed out after {WORKER_TIMEOUT_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def pass_wall(passes) -> float:
    """One pass's time, summed over its operations' median times across passes.

    A slow episode of a shared host that hits one operation of one pass
    moves this less than it moves the median of whole-pass sums.
    """
    times: dict[str, list[float]] = {}
    for p in passes:
        for op, dt in p["ops"]:
            times.setdefault(op, []).append(dt)
    return sum(statistics.median(v) for v in times.values())


def run_workload(workload, seed, seconds, trace) -> dict:
    """Set-up probes before and after the measured worker, so that set-up
    time is sampled across the run rather than in one moment."""
    started = time.monotonic()

    def setup_probe():
        return spawn_worker(workload, seed, seconds, trace, 0, setup_only=True)["setup_s"]

    before = SETUP_REPEATS // 2
    setups = [setup_probe() for _ in range(before)]
    budget = RUN_BUDGET_S - 2 * (time.monotonic() - started)
    result = spawn_worker(workload, seed, seconds, trace, budget)
    setups.append(result["setup_s"])
    setups += [setup_probe() for _ in range(SETUP_REPEATS - 1 - before)]
    passes = result["passes"]
    if len({p["traced"] for p in passes}) < (2 if trace else 1):
        raise RuntimeError(f"{workload}: no complete pass; {result['failures'][:3]}")

    if trace:
        traced = [p for p in passes if p["traced"]]
        plain = [p for p in passes if not p["traced"]]
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name, _ in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = pass_wall(traced) - pass_wall(plain)
    else:
        wall = pass_wall(passes)
        if result["cmd_unit"] == "pass":
            cmd_p50 = wall
        else:
            cmd_p50 = statistics.median(dt for p in passes for _, dt in p["ops"])
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "cmd_p50_s": cmd_p50,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
    env = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(passes),
        "setup_repeats": SETUP_REPEATS,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        **result["versions"],
        **git_state(),
        "sizes": result["sizes"],
    }
    return {"env": env, "metrics": metrics, "attempted": result["attempted"],
            "failed": result["failed"], "failures": result["failures"],
            "setups": setups, "passes": passes}


def print_table(results: dict, trace: int) -> None:
    names = [name for name, _ in (PER_LAYER if trace else END_TO_END)]
    if not trace:
        names.append("fail_ratio")
    wls = list(results)
    width = max(len(n) for n in names) + 2
    print(f"{'metric':<{width}}{'unit':<8}" + "".join(f"{w:>16}" for w in wls))
    for name in names:
        cells = []
        for w in wls:
            r = results[w]
            value = r["failed"] / r["attempted"] if name == "fail_ratio" else r["metrics"][name]
            cells.append(f"{value:>16.6g}")
        print(f"{name:<{width}}{UNITS.get(name, 'ratio'):<8}" + "".join(cells))
    for w in wls:
        for line in results[w]["failures"]:
            print(f"FAILED {w}: {line}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10,
                    help="measure each workload for this long (at least one pass)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "twinsep", "__init__.py")):
        print(f"error: no twinsep source tree at {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(STATE_DIR, "tmp"), exist_ok=True)

    wls = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in wls:
        try:
            results[w] = run_workload(w, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        with open(os.path.join(STATE_DIR, f"result-{w}-seed{args.seed}-trace{args.trace}.json"),
                  "w") as fh:
            json.dump(results[w], fh, indent=1)
        print("env: " + json.dumps(results[w]["env"]))

    print_table(results, args.trace)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())

    def metric_json(r):
        return {name: {"value": value, "unit": UNITS[name]} for name, value in r["metrics"].items()}

    if len(results) == 1:
        metrics = metric_json(results[wls[0]])
    else:
        metrics = {w: metric_json(r) for w, r in results.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
