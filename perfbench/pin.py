#!/usr/bin/env python3
"""Pin the current tree's outputs into perfbench/expected.json.

    python3 perfbench/pin.py

Runs one untimed pass of every workload with seed 0 and records each
checked value (file hashes, counts, fit and GOF fields) instead of
comparing it.  The checks that do not depend on pins (published prime
counts, round trips, model properties) still apply, and a failing one
aborts without writing.  Re-pinning is a deliberate change to the
benchmark's notion of correct output; say why in the change that does it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> int:
    tmp = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    pinned = {}
    for name, cls in workloads.WORKLOADS.items():
        workdir = tempfile.mkdtemp(prefix=f"pin-{name}-", dir=tmp)
        try:
            ctx = workloads.Context(workdir, expected=None)
            wl = cls(ROOT)
            wl.setup(ctx, 0)
            wl.run_pass(ctx, ctx.begin_pass(0, None))
            wl.finish(ctx)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if ctx.failures:
            print("\n".join(ctx.failures), file=sys.stderr)
            return 1
        pinned[name] = ctx.recorded
        print(f"{name}: pinned {len(ctx.recorded)} values")
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
