"""Benchmark of the snowflake_groups toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Workloads: ball_oracle, loop_verify,
h_metric, van_kampen (see perfbench/README.md for what each one exercises).

Every repetition runs in its own fresh interpreter (child.py), one at a
time, with no threads or worker pools, so the process-wide |a^m| cache and
the BFS dictionaries never carry over between repetitions or workloads.

``--trace 0`` repeats the workload for about ``--seconds`` seconds, with
a few set-up-only launches before and after, and reports the medians of
``setup_s``, ``wall_s`` and ``peak_rss_mb``.  The two times are in
reference seconds (refclock.py): scaled by a fixed pure-Python kernel timed
alongside the work, so that the host's drifting speed cancels out.  The raw
medians and the kernel's median time are printed too, marked ``unscaled``.

``--trace 1`` alternates untraced and traced repetitions for about
``--seconds`` seconds, checks that all of them produced the same outputs and
exact counts, runs the other workloads at probe scale for the layers this
one never calls, times the CLI start-up, and reports the medians of the
per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the command exits 1
if any output was wrong (after printing it), 2 on a usage error or when the
checkout holds no ``src/snowflake_groups``.  A full record of the run,
provenance included, is written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock  # beside this file, as is tracing; neither imports the package
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("ball_oracle", "loop_verify", "h_metric", "van_kampen")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 3  # set-up-only launches before and again after the repetitions
MAX_REPS = 50
RUN_LIMIT_S = 170.0  # hard limit for one run, children included
CLI_ARGS = ["area-budget", "--central", "10", "--enfilade", "3", "--branching", "4", "--shells", "5"]
CLI_ANSWER = "1006"  # 10 + 4 (3 + 4)(2^5 - 1) + 2^7
CLI_SAMPLES = 5


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(deadline: float, *args: str) -> dict:
    """Run child.py to completion; its JSON result plus set-up and elapsed time."""
    launched = time.monotonic()
    if deadline - launched <= 0:
        raise ChildFailed("run time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=deadline - launched,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {' '.join(args)} killed at the run time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child {' '.join(args)} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["raw_setup_s"] = result["ready"] - launched
    # each child's times in reference seconds, by its own kernel samples
    result["setup_s"] = refclock.scaled(result["raw_setup_s"], result["kernel_s"])
    if "raw_wall_s" in result:
        result["wall_s"] = refclock.scaled(result["raw_wall_s"], result["kernel_s"])
    result["elapsed_s"] = time.monotonic() - launched
    return result


def cli_startup(deadline: float) -> tuple[list[float], int]:
    """Wall times of fresh `python -m snowflake_groups.cli area-budget ...` runs."""
    times, wrong = [], 0
    for _ in range(CLI_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "snowflake_groups.cli", *CLI_ARGS],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - t0, 0.001),
        )
        times.append(time.monotonic() - t0)
        wrong += proc.returncode != 0 or proc.stdout.strip() != CLI_ANSWER
    return times, wrong


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    revision = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=30,
        )
        revision = proc.stdout.strip() or revision
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
    }


def plain_run(args, deadline):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_only = lambda: launch(deadline, *common, "--setup-only")  # noqa: E731
    # set-up samples at both ends of the run, which may see different machine load
    setups = [setup_only() for _ in range(SETUP_SAMPLES)]
    reps = []
    started = time.monotonic()
    while len(reps) < MAX_REPS:
        reps.append(launch(deadline, *common))
        spent = time.monotonic() - started
        # start another repetition only if it should end within --seconds
        if spent + reps[-1]["elapsed_s"] > args.seconds:
            break
    setups += [setup_only() for _ in range(SETUP_SAMPLES)]
    setups += reps
    failures = [f for r in reps for f in r["failures"]]
    same = [r["digest"] == reps[0]["digest"] and r["counts"] == reps[0]["counts"] for r in reps[1:]]
    if not all(same):
        failures.append("repetitions of one seed disagree on outputs")
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    raw = {
        "setup_s": statistics.median(r["raw_setup_s"] for r in setups),
        "wall_s": statistics.median(r["raw_wall_s"] for r in reps),
        "kernel_ms": 1e3 * statistics.median(k for r in setups for k in r["kernel_s"]),
    }
    attempted = sum(r["attempted"] for r in reps) + len(same)
    failed = sum(r["failed"] for r in reps) + same.count(False)
    record = {
        "unscaled": raw,
        "raw_setup_samples": [r["raw_setup_s"] for r in setups],
        "reps": reps,
    }
    return metrics, END_TO_END, attempted, failed, failures, record


def traced_run(args, deadline):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    plain, traced = [], []
    started = time.monotonic()
    while len(plain) < MAX_REPS:
        plain.append(launch(deadline, *common))
        traced.append(launch(deadline, *common, "--mode", "traced", "--spans", str(spans)))
        spent = time.monotonic() - started
        # start another untraced/traced pair only if it should end within --seconds
        if spent + plain[-1]["elapsed_s"] + traced[-1]["elapsed_s"] > args.seconds:
            break
    probe = launch(deadline, *common, "--mode", "probe")
    cli_times, cli_wrong = cli_startup(deadline)

    ref = plain[0]
    self_check = [
        r["digest"] == ref["digest"]
        and r["counts"] == ref["counts"]
        and all(r["calls"].get(k, 0) == n for k, n in ref["calls"].items())
        for r in plain[1:] + traced
    ]
    children = plain + traced + [probe]
    failures = [f for r in children for f in r["failures"]]
    if not all(self_check):
        failures.append("traced and untraced runs differ in their outputs or exact counts")
    failures += ["CLI printed a wrong area budget"] * cli_wrong

    units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
    metrics = {}
    for name in traced[0]["layer"]:
        values = [r["layer"][name] for r in traced if r["layer"][name] is not None]
        if not values:
            metrics[name] = probe["layer"][name]
        elif units[name] == "count":  # exact, and equal in every repetition
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["cli.startup_s"] = statistics.median(cli_times)
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
    )
    raw = {
        "trace.overhead_s": statistics.median(r["raw_wall_s"] for r in traced)
        - statistics.median(r["raw_wall_s"] for r in plain),
        "kernel_ms": 1e3 * statistics.median(k for r in plain + traced for k in r["kernel_s"]),
    }
    for name, value in metrics.items():
        if value is None:
            failures.append(f"no run measured {name}")
            metrics[name] = 0.0
    attempted = sum(r["attempted"] for r in children) + len(self_check) + CLI_SAMPLES
    failed = sum(r["failed"] for r in children) + self_check.count(False) + cli_wrong
    record = {
        "unscaled": raw,
        "plain": plain, "traced": traced, "probe": probe,
        "cli_startup_s": cli_times, "spans_file": str(spans.relative_to(ROOT)),
    }
    return metrics, units, attempted, failed, failures, record


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the snowflake_groups toolkit.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "snowflake_groups" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'snowflake_groups'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    prov = provenance(args)
    try:
        run = traced_run if args.trace else plain_run
        metrics, units, attempted, failed, failures, record = run(args, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for name, value in record["unscaled"].items():
        print(f"unscaled: {name} {value!r} {'ms' if name.endswith('_ms') else 's'}")
    print(f"fail_frac {failed / attempted!r} ({failed} of {attempted} checks)")
    for failure in failures:
        print(f"FAILED {failure}")
    OUT.mkdir(exist_ok=True)
    record_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(
        {"provenance": prov, "metrics": metrics, "failures": failures, **record}, indent=1, default=str
    ))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
