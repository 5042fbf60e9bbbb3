"""One repetition of one workload, in a fresh interpreter.

Started by run.py, never by hand.  Prints one JSON line: the moment set-up
ended (``ready``, on the system-wide monotonic clock, so the parent can
compute set-up time from its launch time), the times of the reference
kernel (refclock.py), the raw wall time of the workload's fixed work with
the kernel's runs left out, this process's own peak RSS, the check tallies,
a digest of the outputs and the exact counts.  Modes:

* ``plain``: the workload with call counters only (end-to-end metrics);
* ``traced``: the workload with spans, plus the per-layer metrics;
* ``probe``: the other workloads at probe scale, traced, for the per-layer
  metrics the named workload never reaches.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402  (imports snowflake_groups: part of set-up)


def _deep_size(obj) -> int:
    """Bytes held by obj and everything it contains (cached small ints excluded)."""
    total, stack = 0, [obj]
    while stack:
        o = stack.pop()
        if type(o) is int and -5 <= o <= 256:
            continue
        total += sys.getsizeof(o)
        if isinstance(o, dict):
            stack.extend(o.keys())
            stack.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
    return total


def retained_mb() -> float:
    """Memory held by vertex_group's module-level containers (its caches)."""
    module = sys.modules["snowflake_groups.vertex_group"]
    held = [v for k, v in vars(module).items() if not k.startswith("__") and isinstance(v, (dict, list, set))]
    return sum(_deep_size(v) for v in held) / 2**20


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "traced", "probe"), default="plain")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    if args.mode == "probe":
        names = [n for n in workloads.WORKLOADS if n != args.workload]
    else:
        names = [args.workload]
    scale = "probe" if args.mode == "probe" else "full"
    jobs = []
    for name in names:
        setup, run = workloads.WORKLOADS[name]
        jobs.append((run, setup(random.Random(f"{name}:{args.seed}"), scale)))
    rec = tracing.Recorder(timed=args.mode != "plain")
    rec.install()
    ready = time.monotonic()
    clock = refclock.Clock()
    if args.setup_only:
        print(json.dumps({"ready": ready, "kernel_s": [clock.kernel() for _ in range(3)]}))
        return 0

    rec.tick = clock.tick
    ctx = workloads.Context(rec, clock.tick)
    clock.start()
    t0 = time.perf_counter()
    for run, inputs in jobs:
        run(inputs, ctx)
    clock.stop()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "ready": ready,
        "kernel_s": clock.kernel_s,
        "raw_wall_s": clock.raw_s,
        "peak_rss_mb": peak_mb,
        "attempted": ctx.ck.attempted,
        "failed": ctx.ck.failed,
        "failures": ctx.ck.failures,
        "digest": hashlib.sha256(repr(ctx.outputs).encode()).hexdigest(),
        "counts": dict(ctx.counts),
        "calls": dict(rec.calls),
    }
    if rec.timed:
        result["layer"] = tracing.layer_metrics(rec.spans, ctx.counts, retained_mb())
        if args.spans is not None:
            with args.spans.open("w") as fp:
                for name, start, end, parent, phase, size, grown in rec.spans:
                    fp.write(json.dumps([name, start - t0, end - t0, parent, phase, size, grown]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
